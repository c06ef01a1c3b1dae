package victim

import (
	"math/big"
	"testing"

	"afterimage/internal/mem"
	"afterimage/internal/rsa"
	"afterimage/internal/sim"
)

func quiet(seed int64) *sim.Machine { return sim.NewMachine(sim.Quiet(sim.CoffeeLake(seed))) }

func TestBranchyLoadsCorrectIP(t *testing.T) {
	m := quiet(1)
	env := m.Direct(m.NewProcess("v"))
	page := env.Mmap(mem.PageSize, mem.MapLocked)
	v := NewBranchy(page.Base)
	v.Step(env, true)
	if _, ok := m.Pref.IPStride.Peek(v.IPIf, env.PID()); !ok {
		t.Fatal("if-path IP not seen by prefetcher")
	}
	if _, ok := m.Pref.IPStride.Peek(v.IPElse, env.PID()); ok {
		t.Fatal("else-path IP seen on an if-path step")
	}
	if uint8(v.IPIf) == uint8(v.IPElse) {
		t.Fatal("demo IPs alias in their low 8 bits")
	}
}

func TestBranchyRunYieldsPerBit(t *testing.T) {
	m := quiet(2)
	proc := m.NewProcess("v")
	page := m.Direct(proc).Mmap(mem.PageSize, mem.MapLocked)
	v := NewBranchy(page.Base)
	steps := 0
	m.Spawn(proc, "victim", func(e *sim.Env) {
		v.Run(e, []bool{true, false, true})
	})
	m.Spawn(proc, "observer", func(e *sim.Env) {
		for i := 0; i < 3; i++ {
			steps++
			e.Yield()
		}
	})
	m.Run()
	if steps != 3 {
		t.Fatalf("observer interleaved %d times", steps)
	}
}

func TestKernelSecretHandler(t *testing.T) {
	m := quiet(3)
	kv := NewKernelSecret(m, 333, []bool{true, false})
	env := m.Direct(m.NewProcess("u"))
	shared := env.Mmap(mem.PageSize, mem.MapShared)
	env.WarmTLB(shared.Base)
	if got := env.Syscall(333, uint64(shared.Base)); got != 1 {
		t.Fatalf("taken call returned %d", got)
	}
	line := shared.Base + mem.VAddr(kv.Line*mem.LineSize)
	if !env.Cached(line) {
		t.Fatal("kernel load did not cache the shared line")
	}
	env.Flush(line)
	if got := env.Syscall(333, uint64(shared.Base)); got != 0 {
		t.Fatalf("not-taken call returned %d", got)
	}
	if env.Cached(line) {
		t.Fatal("not-taken branch touched the shared line")
	}
	if kv.Calls() != 2 {
		t.Fatalf("Calls = %d", kv.Calls())
	}
	if env.Syscall(333) != ^uint64(0) {
		t.Fatal("missing argument not rejected")
	}
}

func TestSGXStrideSelection(t *testing.T) {
	for _, secret := range []bool{true, false} {
		m := quiet(4)
		env := m.Direct(m.NewProcess("app"))
		buf := env.Mmap(mem.PageSize, mem.MapShared)
		v := NewSGXSecret(buf.Base)
		v.ECall(env, secret)
		e, ok := m.Pref.IPStride.Peek(v.LoadIP, env.PID())
		if !ok {
			t.Fatal("enclave loads not observed")
		}
		want := v.StrideNotTaken
		if secret {
			want = v.StrideTaken
		}
		if e.Stride != want*mem.LineSize {
			t.Fatalf("secret=%v: stride=%d want %d lines", secret, e.Stride, want)
		}
		if e.Confidence < 2 {
			t.Fatalf("enclave training left confidence %d", e.Confidence)
		}
	}
}

func TestRSALadderDecryptsCorrectly(t *testing.T) {
	m := quiet(5)
	env := m.Direct(m.NewProcess("v"))
	key := rsa.TestKey(128)
	v := NewRSALadder(env, key)
	v.YieldPerBit = false // direct env
	msg := big.NewInt(987654321)
	c, err := key.Encrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Decrypt(env, c); got.Cmp(msg) != 0 {
		t.Fatal("instrumented decryption corrupted the plaintext")
	}
}

func TestRSALadderIssuesBranchLoads(t *testing.T) {
	m := quiet(6)
	env := m.Direct(m.NewProcess("v"))
	v := NewRSALadder(env, rsa.TestKey(128))
	v.YieldPerBit = false
	v.LadderStep(env, 0, 1)
	if _, ok := m.Pref.IPStride.Peek(v.IPIf, env.PID()); !ok {
		t.Fatal("bit=1 step missed the if-path IP")
	}
	v.LadderStep(env, 1, 0)
	if _, ok := m.Pref.IPStride.Peek(v.IPElse, env.PID()); !ok {
		t.Fatal("bit=0 step missed the else-path IP")
	}
}

// TestRSALadderIsLoadBalanced pins the timing-constant property: both
// directions perform exactly one workspace load plus the same sleep.
func TestRSALadderIsLoadBalanced(t *testing.T) {
	m := quiet(7)
	env := m.Direct(m.NewProcess("v"))
	v := NewRSALadder(env, rsa.TestKey(128))
	v.YieldPerBit = false
	// Warm both paths' lines first so both steps run from equal cache state.
	v.LadderStep(env, 0, 1)
	v.LadderStep(env, 3, 0)
	t0 := env.Now()
	v.LadderStep(env, 6, 1)
	d1 := env.Now() - t0
	t1 := env.Now()
	v.LadderStep(env, 9, 0)
	d0 := env.Now() - t1
	diff := int64(d1) - int64(d0)
	if diff < 0 {
		diff = -diff
	}
	if diff > 64 {
		t.Fatalf("ladder step timing unbalanced: bit1=%d bit0=%d", d1, d0)
	}
}

func TestOpenSSLRSAPhases(t *testing.T) {
	m := quiet(8)
	proc := m.NewProcess("v")
	var v *OpenSSLRSA
	yields := 0
	m.Spawn(proc, "victim", func(e *sim.Env) {
		v = NewOpenSSLRSA(e)
		v.Run(e)
	})
	m.Spawn(proc, "sampler", func(e *sim.Env) {
		for {
			yields++
			e.Yield()
			if yields > 200 {
				return
			}
		}
	})
	m.Run()
	wantYields := v.IdleBeforeKeyLoad + v.KeyLines + v.IdleBeforeDecrypt + v.MulAddIters
	if yields < wantYields {
		t.Fatalf("sampler saw %d slots, want ≥ %d", yields, wantYields)
	}
	if _, ok := m.Pref.IPStride.Peek(v.IPKeyLoad, proc.PID); !ok {
		t.Fatal("key-load IP never executed")
	}
	if _, ok := m.Pref.IPStride.Peek(v.IPMulAdd, proc.PID); !ok {
		t.Fatal("mul-add IP never executed")
	}
}

func TestAESEncryptorComputesFIPSVector(t *testing.T) {
	m := quiet(9)
	proc := m.NewProcess("v")
	var ct [16]byte
	var runErr error
	m.Spawn(proc, "victim", func(e *sim.Env) {
		v := NewAESEncryptor(e)
		ct, runErr = v.Run(e, []byte{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
			0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34})
	})
	m.Spawn(proc, "pump", func(e *sim.Env) {
		for i := 0; i < 64; i++ {
			e.Yield()
		}
	})
	m.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	want := [16]byte{0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
		0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32}
	if ct != want {
		t.Fatalf("ciphertext % x", ct)
	}
}

func TestAESEncryptorTouchesSBoxIP(t *testing.T) {
	m := quiet(10)
	proc := m.NewProcess("v")
	var v *AESEncryptor
	m.Spawn(proc, "victim", func(e *sim.Env) {
		v = NewAESEncryptor(e)
		v.IdleBeforeExpand, v.IdleBeforeEncrypt = 0, 0
		_, _ = v.Run(e, make([]byte, 16))
	})
	m.Spawn(proc, "pump", func(e *sim.Env) {
		for i := 0; i < 8; i++ {
			e.Yield()
		}
	})
	m.Run()
	if _, ok := m.Pref.IPStride.Peek(v.IPSBox, proc.PID); !ok {
		t.Fatal("S-box IP never reached the prefetcher")
	}
}

func TestBranchyCustomLine(t *testing.T) {
	m := quiet(11)
	env := m.Direct(m.NewProcess("v"))
	page := env.Mmap(mem.PageSize, mem.MapLocked)
	v := NewBranchy(page.Base)
	v.Line = 42
	v.Step(env, false)
	if !env.Cached(page.Base + mem.VAddr(42*mem.LineSize)) {
		t.Fatal("custom line not touched")
	}
}
