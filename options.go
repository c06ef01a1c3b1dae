package afterimage

import "fmt"

// OptionError is the typed validation failure every exported option struct
// produces for out-of-range configuration: which struct, which field, the
// offending value, and the constraint it violates. Callers match it with
// errors.As to distinguish caller bugs from simulator faults.
type OptionError struct {
	Struct     string
	Field      string
	Value      any
	Constraint string
}

// Error formats the violation.
func (e *OptionError) Error() string {
	return fmt.Sprintf("afterimage: %s.%s = %v violates %s", e.Struct, e.Field, e.Value, e.Constraint)
}

// optErr builds an OptionError.
func optErr(strct, field string, value any, constraint string) error {
	return &OptionError{Struct: strct, Field: field, Value: value, Constraint: constraint}
}

// MaxCovertEntries is the prefetcher history-table size (Figure 8a): the
// covert channel cannot drive more concurrent lanes than the table holds.
const MaxCovertEntries = 24

// maxStrideLines is the largest trainable line stride: strides are stored
// as byte deltas truncated to |stride| < 2048 bytes (§4.2), i.e. at most
// 31 whole 64-byte lines.
const maxStrideLines = 31

// Validate rejects out-of-range lab configuration. Zero values mean
// "default" throughout and always pass.
func (o Options) Validate() error {
	if o.AuditEvery < 0 {
		return optErr("Options", "AuditEvery", o.AuditEvery, ">= 0 (0 disables the cadence)")
	}
	return nil
}

// Validate rejects out-of-range covert-channel configuration. Zero values
// mean "default" (Entries 1, SlotCycles 9 000 000, InterleaveDepth 35).
func (o CovertOptions) Validate() error {
	if o.Entries < 0 || o.Entries > MaxCovertEntries {
		return optErr("CovertOptions", "Entries", o.Entries,
			fmt.Sprintf("0 (default) or 1..%d (the history table has %d entries)", MaxCovertEntries, MaxCovertEntries))
	}
	if o.InterleaveDepth < 0 {
		return optErr("CovertOptions", "InterleaveDepth", o.InterleaveDepth, ">= 1 (0 means default 35)")
	}
	return nil
}

// validStride reports whether a line stride is trainable: 0 (default) or
// within the prefetcher's |stride| < 2 KiB representable range.
func validStride(s int64) bool { return s >= 0 && s <= maxStrideLines }

// Validate rejects out-of-range Variant 1 configuration. It runs after the
// defaults are filled, so both strides are non-zero by then; they must be
// distinct — the decoder tells the two paths apart by stride.
func (o V1Options) Validate() error {
	if o.Bits < 0 {
		return optErr("V1Options", "Bits", o.Bits, ">= 0")
	}
	if !validStride(o.IfStride) {
		return optErr("V1Options", "IfStride", o.IfStride,
			fmt.Sprintf("1..%d lines (|stride| < 2 KiB)", maxStrideLines))
	}
	if !validStride(o.ElseStride) {
		return optErr("V1Options", "ElseStride", o.ElseStride,
			fmt.Sprintf("1..%d lines (|stride| < 2 KiB)", maxStrideLines))
	}
	if o.IfStride != 0 && o.IfStride == o.ElseStride {
		return optErr("V1Options", "ElseStride", o.ElseStride, "distinct from IfStride (the decoder keys on stride)")
	}
	return nil
}

// Validate rejects out-of-range Variant 2 configuration.
func (o V2Options) Validate() error {
	if o.Bits < 0 {
		return optErr("V2Options", "Bits", o.Bits, ">= 0")
	}
	if !validStride(o.Stride) {
		return optErr("V2Options", "Stride", o.Stride,
			fmt.Sprintf("1..%d lines (|stride| < 2 KiB)", maxStrideLines))
	}
	return nil
}

// Validate rejects out-of-range RSA-extraction configuration.
func (o RSAOptions) Validate() error {
	// The sizes rsa.GenerateKey builds: even (two primes of KeyBits/2),
	// at least 32.
	if o.KeyBits != 0 && (o.KeyBits < 32 || o.KeyBits > 4096 || o.KeyBits%2 != 0) {
		return optErr("RSAOptions", "KeyBits", o.KeyBits, "even, 32..4096 (0 means default 128)")
	}
	if o.ItersPerBit < 0 {
		return optErr("RSAOptions", "ItersPerBit", o.ItersPerBit, ">= 1 (0 means default 5)")
	}
	return nil
}

// Validate rejects out-of-range sweep configuration.
func (o SweepOptions) Validate() error {
	if o.Bits < 0 {
		return optErr("SweepOptions", "Bits", o.Bits, ">= 0 (0 means default 32)")
	}
	for i, x := range o.Intensities {
		if x < 0 {
			return optErr("SweepOptions", fmt.Sprintf("Intensities[%d]", i), x, ">= 0")
		}
	}
	return nil
}

// ExtractRSAKeyE is ExtractRSAKey with validation and graceful failure: bad
// options surface as a typed *OptionError, simulator faults as a *SimFault.
func (l *Lab) ExtractRSAKeyE(opts RSAOptions) (res RSAResult, err error) {
	defer recoverAsError(&err)
	if verr := opts.Validate(); verr != nil {
		return RSAResult{}, verr
	}
	return l.ExtractRSAKey(opts), nil
}
