package afterimage

import (
	"encoding/json"
	"math/big"
	"testing"

	"afterimage/internal/rsa"
)

func TestModelStrings(t *testing.T) {
	if CoffeeLake.String() == "" || Haswell.String() == "" {
		t.Fatal("empty model names")
	}
	lab := NewLab(Options{Model: Haswell, Seed: 1})
	if lab.ModelName() != "Haswell i7-4770" {
		t.Fatalf("ModelName = %q", lab.ModelName())
	}
}

func TestSecondsConversion(t *testing.T) {
	lab := NewLab(Options{Seed: 1})
	if s := lab.Seconds(3_000_000_000); s != 1 {
		t.Fatalf("Seconds = %v", s)
	}
}

func TestRandomBitsDeterministic(t *testing.T) {
	a := NewLab(Options{Seed: 9}).randomBits(32)
	b := NewLab(Options{Seed: 9}).randomBits(32)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random bits differ across equal seeds")
		}
	}
}

func TestRevFig6IndexBoundary(t *testing.T) {
	lab := NewLab(Options{Seed: 2, Quiet: true})
	for _, p := range lab.RevFig6() {
		want := p.MatchedBits >= 8
		if p.Triggered != want {
			t.Fatalf("matched=%d triggered=%v, want %v (t=%d)",
				p.MatchedBits, p.Triggered, want, p.AccessTime)
		}
	}
}

func TestRevFig7Policy(t *testing.T) {
	lab := NewLab(Options{Seed: 3, Quiet: true})
	a := lab.RevFig7(true) // Figure 7a
	wantA := []Fig7Point{
		{1, true, false}, {2, false, false}, {3, false, true},
	}
	for i, w := range wantA {
		if a[i].OldStrideFired != w.OldStrideFired || a[i].NewStrideFired != w.NewStrideFired {
			t.Fatalf("7a iter %d: %+v, want %+v", i+1, a[i], w)
		}
	}
	b := lab.RevFig7(false) // Figure 7b
	wantB := []Fig7Point{
		{1, true, false}, {2, false, true},
	}
	for i, w := range wantB {
		if b[i].OldStrideFired != w.OldStrideFired || b[i].NewStrideFired != w.NewStrideFired {
			t.Fatalf("7b iter %d: %+v, want %+v", i+1, b[i], w)
		}
	}
}

func TestRevTable1(t *testing.T) {
	lab := NewLab(Options{Seed: 4, Quiet: true})
	rows := lab.RevTable1()
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		switch r.Pool {
		case "recl":
			if !r.SharePhysical || !r.Prefetchable {
				t.Fatalf("recl offset %d: %+v (want shared & prefetchable)", r.PageOffset, r)
			}
		case "lock":
			if r.SharePhysical {
				t.Fatalf("lock offset %d shares a frame", r.PageOffset)
			}
			want := r.PageOffset == 1 // only the next page is prefetchable
			if r.Prefetchable != want {
				t.Fatalf("lock offset %d: prefetchable=%v, want %v", r.PageOffset, r.Prefetchable, want)
			}
		}
	}
}

func TestRevFig8a(t *testing.T) {
	lab := NewLab(Options{Seed: 5, Quiet: true})
	for _, tc := range []struct{ n, evicted int }{{26, 2}, {30, 6}} {
		pts := lab.RevFig8a(tc.n)
		for _, p := range pts {
			want := p.Index >= tc.evicted
			if p.Triggered != want {
				t.Fatalf("n=%d point %d: triggered=%v, want %v", tc.n, p.Index, p.Triggered, want)
			}
		}
	}
}

func TestRevFig8b(t *testing.T) {
	lab := NewLab(Options{Seed: 6, Quiet: true})
	for _, p := range lab.RevFig8b() {
		want := p.Index < 8 || p.Index >= 16
		if p.Triggered != want {
			t.Fatalf("point %d: triggered=%v, want %v", p.Index, p.Triggered, want)
		}
	}
}

func TestSGXRetention(t *testing.T) {
	lab := NewLab(Options{Seed: 7, Quiet: true})
	hit, at := lab.SGXRetention()
	if !hit {
		t.Fatalf("enclave prefetch lost after EEXIT (t=%d)", at)
	}
}

func TestVariant1CrossThreadAccuracy(t *testing.T) {
	lab := NewLab(Options{Seed: 8})
	res := lab.RunVariant1(V1Options{Bits: 64})
	if res.SuccessRate() < 0.95 {
		t.Fatalf("cross-thread F+R success %.2f, want ≥ 0.95 (paper: 0.99)", res.SuccessRate())
	}
	if len(res.LastProbe) != 64 {
		t.Fatalf("probe vector has %d points", len(res.LastProbe))
	}
}

func TestVariant1CrossProcessAccuracy(t *testing.T) {
	lab := NewLab(Options{Seed: 9})
	res := lab.RunVariant1(V1Options{Bits: 64, CrossProcess: true})
	if res.SuccessRate() < 0.90 {
		t.Fatalf("cross-process F+R success %.2f, want ≥ 0.90 (paper: 0.97)", res.SuccessRate())
	}
}

func TestVariant1PrimeProbeBackend(t *testing.T) {
	lab := NewLab(Options{Seed: 10})
	res := lab.RunVariant1(V1Options{Bits: 16, Backend: PrimeProbe})
	if res.SuccessRate() < 0.85 {
		t.Fatalf("P+P success %.2f", res.SuccessRate())
	}
}

func TestVariant2Accuracy(t *testing.T) {
	lab := NewLab(Options{Seed: 11})
	res := lab.RunVariant2(V2Options{Bits: 64})
	if res.SuccessRate() < 0.85 {
		t.Fatalf("V2 success %.2f, want ≥ 0.85 (paper: 0.91)", res.SuccessRate())
	}
}

func TestVariant2WithIPSearch(t *testing.T) {
	lab := NewLab(Options{Seed: 12, Quiet: true})
	res := lab.RunVariant2(V2Options{Bits: 8, UseIPSearch: true})
	if !res.IPSearched {
		t.Fatal("IP search did not run")
	}
	if res.FoundIPLow8 != 0xA7 {
		t.Fatalf("IP search found %#x, want 0xA7", res.FoundIPLow8)
	}
	if res.SuccessRate() < 0.8 {
		t.Fatalf("V2-with-search success %.2f", res.SuccessRate())
	}
}

func TestSGXLeakAccuracy(t *testing.T) {
	lab := NewLab(Options{Seed: 13, Quiet: true})
	res := lab.RunSGX(16, nil)
	if res.SuccessRate() != 1.0 {
		t.Fatalf("SGX leak success %.2f, want 1.0 in the quiet PoC", res.SuccessRate())
	}
}

func TestMitigationDefeatsVariant1(t *testing.T) {
	lab := NewLab(Options{Seed: 14, MitigationFlush: true})
	res := lab.RunVariant1(V1Options{Bits: 32})
	// With clear-ip-prefetcher on every switch, no echo survives: every
	// round infers "else", so accuracy collapses to the base rate of zeros.
	zeros := 0
	for _, s := range res.Secret {
		if !s {
			zeros++
		}
	}
	if res.Correct != zeros {
		t.Fatalf("mitigated attack still leaked: %d correct vs %d zeros", res.Correct, zeros)
	}
	for _, inf := range res.Inferred {
		if inf {
			t.Fatal("mitigated attack produced a positive inference")
		}
	}
}

func TestCovertChannelSingleEntry(t *testing.T) {
	lab := NewLab(Options{Seed: 15})
	res := lab.RunCovertChannel(CovertOptions{Message: []byte("The quick brown fox jumps over the lazy dog")})
	if res.ErrorRate() > 0.06 {
		t.Fatalf("single-entry covert error %.1f%%, paper reports <6%%", res.ErrorRate()*100)
	}
	if res.Bps(1.0/3e9) <= 0 {
		t.Fatal("non-positive bandwidth")
	}
}

func TestCovertChannelManyEntriesDegrades(t *testing.T) {
	lab1 := NewLab(Options{Seed: 16})
	r1 := lab1.RunCovertChannel(CovertOptions{Message: make([]byte, 120), Entries: 1})
	lab24 := NewLab(Options{Seed: 16})
	r24 := lab24.RunCovertChannel(CovertOptions{Message: make([]byte, 120), Entries: 24})
	if r24.ErrorRate() <= r1.ErrorRate() {
		t.Fatalf("24-entry channel (%.1f%%) not noisier than 1-entry (%.1f%%)",
			r24.ErrorRate()*100, r1.ErrorRate()*100)
	}
	bps1 := r1.Bps(1.0 / 3e9)
	bps24 := r24.Bps(1.0 / 3e9)
	if bps24 <= bps1 {
		t.Fatalf("24 entries (%.0f bps) not faster than 1 (%.0f bps)", bps24, bps1)
	}
}

func TestRSAExtractionSmallKey(t *testing.T) {
	lab := NewLab(Options{Seed: 17})
	res := lab.ExtractRSAKey(RSAOptions{KeyBits: 64, ItersPerBit: 5, VictimIterationCycles: 6000})
	if res.BitSuccessRate() < 0.97 {
		t.Fatalf("RSA bit recovery %.2f (PSC obs %.2f)", res.BitSuccessRate(), res.PSCSuccessRate())
	}
	if res.Recovered.Cmp(res.TrueExponent) != 0 && res.BitsCorrect != res.BitsTotal {
		t.Logf("recovered %x vs %x (%d/%d bits)", res.Recovered, res.TrueExponent, res.BitsCorrect, res.BitsTotal)
	}
	if res.Decryptions != res.BitsTotal*5 {
		t.Fatalf("decryptions = %d, want %d", res.Decryptions, res.BitsTotal*5)
	}
}

func TestRSAExtractionPipelined(t *testing.T) {
	lab := NewLab(Options{Seed: 18})
	res := lab.ExtractRSAKey(RSAOptions{KeyBits: 64, ItersPerBit: 5, Pipelined: true, VictimIterationCycles: 6000})
	if res.BitSuccessRate() < 0.97 {
		t.Fatalf("pipelined RSA bit recovery %.2f", res.BitSuccessRate())
	}
	if res.Decryptions != 5 {
		t.Fatalf("pipelined mode used %d decryptions, want 5", res.Decryptions)
	}
}

// TestRSAResultOwnsItsExponents: a result hands out copies, so a caller
// that changes its exponents cannot change the key every lab shares.
func TestRSAResultOwnsItsExponents(t *testing.T) {
	want := new(big.Int).Set(rsa.TestKey(32).D)
	res := NewLab(Options{Seed: 3}).ExtractRSAKey(RSAOptions{KeyBits: 32, ItersPerBit: 1, Pipelined: true, VictimIterationCycles: 6000})
	if res.TrueExponent.Cmp(want) != 0 {
		t.Fatalf("TrueExponent %x, want %x", res.TrueExponent, want)
	}
	res.TrueExponent.SetInt64(1)
	res.Recovered.SetInt64(1)
	if got := rsa.TestKey(32).D; got.Cmp(want) != 0 {
		t.Fatalf("changing the result changed the shared key's D: %x, want %x", got, want)
	}
}

func TestTrackOpenSSLOnsets(t *testing.T) {
	lab := NewLab(Options{Seed: 19})
	keyLoad, decrypt := lab.TrackOpenSSL()
	if keyLoad.OnsetIndex < 0 || decrypt.OnsetIndex < 0 {
		t.Fatalf("onsets not detected: key=%d dec=%d", keyLoad.OnsetIndex, decrypt.OnsetIndex)
	}
	if keyLoad.OnsetIndex >= decrypt.OnsetIndex {
		t.Fatalf("key load (%d) must precede decryption (%d)", keyLoad.OnsetIndex, decrypt.OnsetIndex)
	}
}

func TestRunTTestSeparation(t *testing.T) {
	aligned := RunTTest(true, 20)
	random := RunTTest(false, 20)
	fa, fr := aligned.FinalT(), random.FinalT()
	if fa > -9 && fa < 9 {
		t.Fatalf("aligned final t %.1f not decisive", fa)
	}
	if fr < -4.5 || fr > 4.5 {
		t.Fatalf("random-timing final t %.1f crossed the threshold", fr)
	}
}

func TestMitigationStudyNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("study is slow")
	}
	res, err := RunMitigationStudy(MitigationOptions{Instructions: 80_000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.AnalyticUpperBound > 0.073 {
		t.Fatalf("analytic bound %.4f above the paper's 7.3%%", res.AnalyticUpperBound)
	}
	if res.Top8Slowdown <= 0 || res.Top8Slowdown > 0.03 {
		t.Fatalf("top-8 slowdown %.4f outside the paper's regime", res.Top8Slowdown)
	}
	if res.OverallSlowdown > res.Top8Slowdown {
		t.Fatal("overall slowdown above the sensitive subset's")
	}
}

func TestSymbolsOfRoundWidth(t *testing.T) {
	syms := symbolsOf([]byte{0xFF, 0x00})
	// 16 bits → 4 symbols (last padded).
	if len(syms) != 4 {
		t.Fatalf("%d symbols", len(syms))
	}
	for _, s := range syms {
		if s >= 32 {
			t.Fatalf("symbol %d out of 5-bit range", s)
		}
	}
}

func TestBackendStrings(t *testing.T) {
	for _, b := range []Backend{FlushReload, PrimeProbe, PSC} {
		if b.String() == "" {
			t.Fatal("empty backend name")
		}
	}
}

// TestTrainingCostComparison pins the §9.2 numbers: BPU mistraining needs
// ~26 000 cycles and 256 sprayed candidates under ASLR; the prefetcher
// trains in one candidate and well under 2 000 cycles.
func TestTrainingCostComparison(t *testing.T) {
	c := CompareTrainingCosts(22)
	if c.BPUCandidates != 256 {
		t.Fatalf("BPU candidates = %d", c.BPUCandidates)
	}
	if c.BPUCycles < 20_000 || c.BPUCycles > 35_000 {
		t.Fatalf("BPU cycles = %d, want ~26 000", c.BPUCycles)
	}
	if c.PrefetcherCandidates != 1 {
		t.Fatalf("prefetcher candidates = %d", c.PrefetcherCandidates)
	}
	if c.PrefetcherCycles == 0 || c.PrefetcherCycles > 2000 {
		t.Fatalf("prefetcher training cycles = %d, want ≤ 2 000", c.PrefetcherCycles)
	}
	if c.Advantage() < 10 {
		t.Fatalf("training advantage only %.1fx", c.Advantage())
	}
}

// TestCovertChannelECC exercises the FEC extension: with Hamming(7,4) plus
// interleaving, a lossy multi-entry channel still delivers the exact
// message even when raw symbol errors occur.
func TestCovertChannelECC(t *testing.T) {
	msg := []byte("afterimage: error corrected covert payload!!")
	lab := NewLab(Options{Seed: 23})
	res := lab.RunCovertChannel(CovertOptions{Message: msg, Entries: 4, UseECC: true})
	if res.SymbolErrors == 0 {
		t.Log("note: no raw symbol errors occurred at this seed")
	}
	if res.MessageByteErrors != 0 {
		t.Fatalf("ECC failed to recover the message: %d byte errors (raw symbol errors %d, corrections %d)",
			res.MessageByteErrors, res.SymbolErrors, res.Corrections)
	}
	if string(res.DecodedMessage[:len(msg)]) != string(msg) {
		t.Fatal("decoded message mismatch")
	}
}

// TestCovertChannelECCBeatsRawUnderLoss compares raw and ECC delivery on
// the same noisy 8-entry channel.
func TestCovertChannelECCBeatsRawUnderLoss(t *testing.T) {
	msg := make([]byte, 160)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	raw := NewLab(Options{Seed: 24}).RunCovertChannel(CovertOptions{Message: msg, Entries: 8})
	eccRes := NewLab(Options{Seed: 24}).RunCovertChannel(CovertOptions{Message: msg, Entries: 8, UseECC: true})
	if raw.SymbolErrors == 0 {
		t.Skip("seed produced a clean raw channel; nothing to compare")
	}
	rawByteErr := raw.SymbolErrors * 2 // each lost symbol corrupts ≥1 byte; rough lower bound
	if eccRes.MessageByteErrors >= rawByteErr {
		t.Fatalf("ECC (%d byte errors) did not improve on raw (%d symbol errors)",
			eccRes.MessageByteErrors, raw.SymbolErrors)
	}
}

// TestTrackAES applies the §6.3 load-tracking flow to the AES victim: both
// the key-expansion slot and the encryption slot are recovered, and the
// victim's ciphertext is the FIPS-197 vector (it computed real AES-128).
func TestTrackAES(t *testing.T) {
	lab := NewLab(Options{Seed: 26})
	_, expandSlot, encryptSlot, ct := lab.TrackAES()
	if expandSlot < 0 || encryptSlot <= expandSlot {
		t.Fatalf("slots: expand=%d encrypt=%d", expandSlot, encryptSlot)
	}
	want := [16]byte{0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
		0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32}
	if ct != want {
		t.Fatalf("victim ciphertext % x, want FIPS-197 vector", ct)
	}
}

// TestShinBaselineTable4 pins the Table 4 comparison: the passive footprint
// attack (Shin et al.) reads a table-scanning victim but learns nothing
// from a branch-owned single load — which AfterImage leaks (Variant 1).
func TestShinBaselineTable4(t *testing.T) {
	lab := NewLab(Options{Seed: 27, Quiet: true})
	scan := lab.RunShinBaseline(9)
	if !scan.FootprintDetected || scan.Stride != 9 {
		t.Fatalf("baseline missed the table-scan footprint: %+v", scan)
	}
	branch := lab.RunShinBaselineOnBranchVictim(true)
	if branch.FootprintDetected {
		t.Fatalf("baseline claims a footprint on a single branch load: %+v", branch)
	}
	// AfterImage leaks that same branch victim.
	lab2 := NewLab(Options{Seed: 27, Quiet: true})
	res := lab2.RunVariant1(V1Options{Secret: []bool{true, false, true}})
	if res.SuccessRate() != 1.0 {
		t.Fatalf("AfterImage failed on the branch victim: %.2f", res.SuccessRate())
	}
}

// TestNoPrefetcherNoLeak is the failure-injection sanity check: on a
// machine whose IP-stride prefetcher never triggers, Variant 1 produces no
// signal at all.
func TestNoPrefetcherNoLeak(t *testing.T) {
	// Both tagging mitigations together leave no cross-context aliasing at
	// all — the strongest "no usable prefetcher" configuration.
	lab := NewLab(Options{Seed: 28, FullIPTag: true, PIDTag: true})
	res := lab.RunVariant1(V1Options{Bits: 24, CrossProcess: true})
	for _, inf := range res.Inferred {
		if inf {
			t.Fatal("leak signal without a usable prefetcher entry")
		}
	}
}

// TestLabDeterminism: identical options reproduce identical full attack
// runs, cycle for cycle.
func TestLabDeterminism(t *testing.T) {
	run := func() (LeakResult, uint64) {
		lab := NewLab(Options{Seed: 99})
		r := lab.RunVariant1(V1Options{Bits: 40, CrossProcess: true})
		return r, lab.Machine().Now()
	}
	r1, c1 := run()
	r2, c2 := run()
	if c1 != c2 {
		t.Fatalf("clock diverged: %d vs %d", c1, c2)
	}
	for i := range r1.Inferred {
		if r1.Inferred[i] != r2.Inferred[i] {
			t.Fatal("inference diverged across identical runs")
		}
	}
	if r1.Cycles != r2.Cycles {
		t.Fatal("cycle counts diverged")
	}
}

func TestDiscoverEvictionSetFacade(t *testing.T) {
	lab := NewLab(Options{Seed: 29, Quiet: true, Model: Haswell})
	lines, trials, err := lab.DiscoverEvictionSet()
	if err != nil {
		t.Fatal(err)
	}
	if lines != 16 {
		t.Fatalf("MES size %d", lines)
	}
	if trials <= 0 {
		t.Fatal("no trials counted")
	}
}

// TestFullReport runs the end-to-end report and pins every headline number
// to its expected regime — the library's own regression gate.
func TestFullReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	r, err := FullReport(ReportOptions{Seed: 1, Rounds: 60, MitigationInstructions: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	re := r.ReverseEngineering
	if re.Fig6BoundaryBits != 8 || !re.Fig7PolicyExact || re.Table1RowsMatching != 8 ||
		re.Fig8aEntries != 24 || !re.Fig8bBitPLRUMatching || !re.SGXRetention {
		t.Fatalf("reverse engineering drifted: %+v", re)
	}
	if r.Attacks.V1ThreadSuccess < 0.95 || r.Attacks.V1ProcessSuccess < 0.90 ||
		r.Attacks.V2KernelSuccess < 0.85 || r.Attacks.SGXSuccess < 0.95 || !r.Attacks.IPSearchFound {
		t.Fatalf("attack rates drifted: %+v", r.Attacks)
	}
	if r.Covert.SingleEntryBps < 700 || r.Covert.SingleEntryBps > 900 ||
		r.Covert.SingleEntryError > 0.06 {
		t.Fatalf("covert single-entry drifted: %+v", r.Covert)
	}
	if r.Covert.MaxEntriesBps < 10_000 || r.Covert.MaxEntriesError < 0.25 {
		t.Fatalf("covert max-entries drifted: %+v", r.Covert)
	}
	if r.RSA.BitSuccess < 0.97 || r.RSA.Minutes1024Budget < 150 || r.RSA.Minutes1024Budget > 230 {
		t.Fatalf("RSA budget drifted: %+v", r.RSA)
	}
	if r.Power.AlignedFinalT > -9 && r.Power.AlignedFinalT < 9 {
		t.Fatalf("aligned t-test drifted: %+v", r.Power)
	}
	if r.Power.RandomFinalT < -4.5 || r.Power.RandomFinalT > 4.5 {
		t.Fatalf("random t-test drifted: %+v", r.Power)
	}
	if r.Mitigation.Top8Slowdown <= 0 || r.Mitigation.Top8Slowdown > 0.03 ||
		r.Mitigation.AnalyticBound > 0.073 {
		t.Fatalf("mitigation drifted: %+v", r.Mitigation)
	}
	if r.Comparison.Advantage < 10 {
		t.Fatalf("comparison drifted: %+v", r.Comparison)
	}
	// JSON round-trips.
	raw, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != r.Schema || back.Attacks.V1ThreadSuccess != r.Attacks.V1ThreadSuccess {
		t.Fatal("JSON round-trip lost data")
	}
}

// TestHaswellModelRunsFullSuite exercises the Table 2 second machine: the
// reverse-engineering results and Variant 1 hold on the Haswell model too.
func TestHaswellModelRunsFullSuite(t *testing.T) {
	lab := NewLab(Options{Seed: 31, Quiet: true, Model: Haswell})
	for _, p := range lab.RevFig6() {
		if p.Triggered != (p.MatchedBits >= 8) {
			t.Fatalf("Haswell fig6 point %d wrong", p.MatchedBits)
		}
	}
	alive := 0
	for _, p := range lab.RevFig8a(26) {
		if p.Triggered {
			alive++
		}
	}
	if alive != 24 {
		t.Fatalf("Haswell table size %d", alive)
	}
	noisy := NewLab(Options{Seed: 31, Model: Haswell})
	res := noisy.RunVariant1(V1Options{Bits: 48})
	if res.SuccessRate() < 0.90 {
		t.Fatalf("Haswell V1 success %.2f", res.SuccessRate())
	}
	ppLab := NewLab(Options{Seed: 32, Model: Haswell})
	pp := ppLab.RunVariant1(V1Options{Bits: 8, Backend: PrimeProbe})
	if pp.SuccessRate() < 0.85 {
		t.Fatalf("Haswell P+P success %.2f", pp.SuccessRate())
	}
}

// TestTable3ExtractionMatrix exercises every variant × extraction-technique
// cell of Table 3: V1 with F+R, P+P and PSC; V2 with F+R and PSC.
func TestTable3ExtractionMatrix(t *testing.T) {
	cases := []struct {
		name string
		min  float64
		run  func() float64
	}{
		{"V1/F+R", 0.95, func() float64 {
			return NewLab(Options{Seed: 51}).RunVariant1(V1Options{Bits: 32}).SuccessRate()
		}},
		{"V1/P+P", 0.85, func() float64 {
			return NewLab(Options{Seed: 52}).RunVariant1(V1Options{Bits: 12, Backend: PrimeProbe}).SuccessRate()
		}},
		{"V1/PSC", 0.85, func() float64 {
			return NewLab(Options{Seed: 53}).RunVariant1(V1Options{Bits: 32, Backend: PSC}).SuccessRate()
		}},
		{"V1/PSC-cross-process", 0.80, func() float64 {
			return NewLab(Options{Seed: 54}).RunVariant1(V1Options{Bits: 32, Backend: PSC, CrossProcess: true}).SuccessRate()
		}},
		{"V2/F+R", 0.85, func() float64 {
			return NewLab(Options{Seed: 55}).RunVariant2(V2Options{Bits: 32}).SuccessRate()
		}},
		{"V2/PSC", 0.80, func() float64 {
			return NewLab(Options{Seed: 56}).RunVariant2(V2Options{Bits: 32, Backend: PSC}).SuccessRate()
		}},
	}
	for _, tc := range cases {
		if got := tc.run(); got < tc.min {
			t.Errorf("%s success %.2f below %.2f", tc.name, got, tc.min)
		} else {
			t.Logf("%s success %.2f", tc.name, got)
		}
	}
}

func TestRunCPAAttackFacade(t *testing.T) {
	aligned := RunCPAAttack(true, 2000, 5)
	if !aligned.Recovered {
		t.Fatalf("aligned CPA failed: %+v", aligned)
	}
	random := RunCPAAttack(false, 2000, 5)
	if random.PeakCorrelation > aligned.PeakCorrelation {
		t.Fatal("random timing outperformed aligned timing")
	}
}

// TestVariant1PSCNeedsNoSharedMemory pins the PSC back-end's defining
// property: the victim page is private (MapLocked, never mapped into the
// attacker), yet the branch still leaks.
func TestVariant1PSCCrossProcessPrivateMemory(t *testing.T) {
	lab := NewLab(Options{Seed: 61})
	res := lab.RunVariant1(V1Options{Bits: 32, Backend: PSC, CrossProcess: true})
	if res.SuccessRate() < 0.80 {
		t.Fatalf("cross-process PSC success %.2f", res.SuccessRate())
	}
}

// TestSGXWithMitigation: the clear-ip-prefetcher flush fires on domain
// switches, but the §5.4 PoC's ECALL round-trip happens inside one task
// slice — training and readout are separated by the enclave transition,
// not a scheduler switch, so this PoC variant survives (the paper's flush
// is specified per context switch; an SGX-aware deployment would also
// flush on EEXIT).
func TestSGXWithMitigationFlushSemantics(t *testing.T) {
	lab := NewLab(Options{Seed: 62, Quiet: true, MitigationFlush: true})
	res := lab.RunSGX(8, nil)
	if res.SuccessRate() < 0.99 {
		t.Fatalf("unexpected: enclave PoC broken by switch-scoped flush (%.2f)", res.SuccessRate())
	}
}
