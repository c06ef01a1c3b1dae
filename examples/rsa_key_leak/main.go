// RSA key leak: the §6.2 end-to-end attack. A victim thread decrypts with
// a timing-constant Montgomery-ladder RSA engine (both branch directions
// perform the same arithmetic — the classic countermeasure against timing
// attacks), yet the operand-preparation loads of the two directions live at
// different instruction addresses, and the IP-stride prefetcher remembers
// which one ran. The attacker recovers the private exponent bit by bit with
// Prefetcher Status Checking — no Flush+Reload, no Prime+Probe.
package main

import (
	"fmt"

	"afterimage"
)

func main() {
	lab := afterimage.NewLab(afterimage.Options{Seed: 7})

	// The faithful per-bit flow: one victim decryption per observation,
	// five observations per bit, majority vote — the paper's 188-minute
	// budget for 1024 bits. A 96-bit exponent keeps this example snappy
	// while exercising the identical machinery.
	res := lab.ExtractRSAKey(afterimage.RSAOptions{
		KeyBits:     96,
		ItersPerBit: 5,
	})

	fmt.Printf("attacking a %d-bit timing-constant RSA decryption on %s\n\n",
		res.KeyBits, lab.ModelName())
	fmt.Printf("true private exponent: %x\n", res.TrueExponent)
	fmt.Printf("recovered exponent:    %x\n", res.Recovered)
	match := "exact match"
	if res.Recovered.Cmp(res.TrueExponent) != 0 {
		match = fmt.Sprintf("%d/%d bits", res.BitsCorrect, res.BitsTotal)
	}
	fmt.Printf("result:                %s\n\n", match)

	fmt.Printf("per-observation PSC accuracy: %.1f%% (paper: 82%%)\n", res.PSCSuccessRate()*100)
	fmt.Printf("victim decryptions consumed:  %d\n", res.Decryptions)
	secs := lab.Seconds(res.Cycles)
	fmt.Printf("simulated attack time:        %.0f s (%.1f s per bit)\n", secs, secs/float64(res.BitsTotal))
	fmt.Printf("extrapolated 1024-bit budget: %.0f minutes (paper: ~188)\n",
		secs/float64(res.BitsTotal)*1024/60)

	// Library extension: when the attacker retrains between consecutive
	// ladder iterations, every bit is observable in a single decryption
	// and the attack collapses to ItersPerBit decryptions total.
	lab2 := afterimage.NewLab(afterimage.Options{Seed: 8})
	fast := lab2.ExtractRSAKey(afterimage.RSAOptions{
		KeyBits:     96,
		ItersPerBit: 5,
		Pipelined:   true,
	})
	fmt.Printf("\npipelined variant: %d/%d bits from only %d decryptions (%.1f s simulated)\n",
		fast.BitsCorrect, fast.BitsTotal, fast.Decryptions, lab2.Seconds(fast.Cycles))
}
