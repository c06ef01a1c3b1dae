// Command afterimage-rsa runs the §6.2 end-to-end key extraction against
// the timing-constant Montgomery-ladder RSA victim via AfterImage-PSC, and
// reports the recovered exponent, the per-observation accuracy, and the
// simulated attack budget (the paper's 188 minutes for 1024 bits).
package main

import (
	"flag"
	"fmt"
	"os"

	"afterimage"
	"afterimage/internal/cliobs"
)

func main() {
	var (
		keyBits = flag.Int("keybits", 96, "RSA modulus size (the paper uses 1024; larger is slower)")
		iters   = flag.Int("iters", 5, "observations per key bit (majority vote)")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		pipe    = flag.Bool("pipelined", false, "observe all bits per decryption (library extension)")
		fast    = flag.Bool("fast", false, "use a fast victim profile instead of the paper's -O0 model")
	)
	obs := cliobs.Register()
	flag.Parse()
	obs.Start()

	lab := afterimage.NewLab(obs.LabOptions(afterimage.Options{Seed: *seed}))
	obs.Observe(lab)
	opts := afterimage.RSAOptions{KeyBits: *keyBits, ItersPerBit: *iters, Pipelined: *pipe}
	if *fast {
		opts.VictimIterationCycles = 6000
	}
	res, err := lab.ExtractRSAKeyE(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "afterimage-rsa: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("machine:            %s\n", lab.ModelName())
	fmt.Printf("key size:           %d-bit modulus, %d-bit private exponent\n", res.KeyBits, res.BitsTotal)
	fmt.Printf("true exponent:      %x\n", res.TrueExponent)
	fmt.Printf("recovered exponent: %x\n", res.Recovered)
	fmt.Printf("bits correct:       %d/%d (%.1f%%)\n", res.BitsCorrect, res.BitsTotal, res.BitSuccessRate()*100)
	fmt.Printf("PSC observations:   %d, accuracy %.1f%% (paper: 82%%)\n", res.Observations, res.PSCSuccessRate()*100)
	fmt.Printf("decryptions:        %d\n", res.Decryptions)
	secs := lab.Seconds(res.Cycles)
	fmt.Printf("simulated time:     %.1f s (%.2f s/bit)\n", secs, secs/float64(res.BitsTotal))
	if !*fast && !*pipe {
		fmt.Printf("1024-bit budget:    ~%.0f minutes (paper: ~188 min)\n",
			secs/float64(res.BitsTotal)*1024/60)
	}
	if *pipe {
		fmt.Println("pipelined mode: all bits observed per decryption — the attack cost")
		fmt.Println("collapses to ItersPerBit decryptions when the attacker keeps ladder pace.")
	}
	if err := obs.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "afterimage-rsa: %v\n", err)
		os.Exit(1)
	}
}
