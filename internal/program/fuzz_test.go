package program

import (
	"bytes"
	"testing"
)

// FuzzProgramDecode feeds arbitrary bytes to the program-image decoder. The
// invariants: no panic and no unbounded allocation on any input (the decoder
// grows element slices incrementally rather than trusting declared counts),
// and any image that decodes — hence validates — re-encodes canonically:
// encode(decode(data)) must itself decode and re-encode byte-identically.
func FuzzProgramDecode(f *testing.F) {
	// Seeds: two small generated (and therefore valid) images plus mangled
	// variants — truncation mid-structure, a corrupt byte (checksum
	// mismatch), a hostile code count with no payload, and a bad magic.
	small := MustGenerate(testSpec(17))
	var buf bytes.Buffer
	if err := small.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	buf.Reset()
	if err := MustGenerate(testSpec(43)).Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(valid[:len(valid)/2])
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)/3] ^= 0x40
	f.Add(corrupt)
	// magic, zero-length name, seed/base/entry, then nCode = 2^26 with no
	// instruction payload behind it.
	hostile := []byte("BPPROG01\x00\x00")
	hostile = append(hostile, make([]byte, 24)...)    // seed, base, entry
	hostile = append(hostile, 0, 0, 0, 0)             // nRegions = 0
	hostile = append(hostile, 0x00, 0x00, 0x00, 0x04) // nCode = 1<<26 (LE)
	f.Add(hostile)
	f.Add([]byte("BPPROG99"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			// Cap replayed input size: the mutator inflates inputs to multiple
			// megabytes, and walking those through the reflective field reads
			// stalls the engine in minimization without covering new paths.
			return
		}
		p, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected without panicking: success
		}
		var b1 bytes.Buffer
		if err := p.Encode(&b1); err != nil {
			t.Fatalf("re-encoding decoded program: %v", err)
		}
		q, err := Decode(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("decoding re-encoded program: %v", err)
		}
		var b2 bytes.Buffer
		if err := q.Encode(&b2); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("encode→decode→encode not byte-identical (%d vs %d bytes)", b1.Len(), b2.Len())
		}
	})
}

// FuzzSiteCounts compares the block-stepped calibration walk with the
// per-instruction Walker. Shape 0 generates a small calibrated image and
// checks every calibration round at a budget of steps; the other shapes
// build programs that leave the generator's discipline — recursion deeper
// than the 1024-entry return stack, an unmatched return, a branch target
// outside the image, an image that ends without a control transfer — and
// check the counts at steps.
func FuzzSiteCounts(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(60), uint8(3), uint8(6), uint32(5000))
	f.Add(uint8(0), uint64(99), uint16(300), uint8(9), uint8(2), uint32(1))
	f.Add(uint8(1), uint64(3), uint16(1100), uint8(0), uint8(0), uint32(9000))
	f.Add(uint8(2), uint64(4), uint16(0), uint8(0), uint8(0), uint32(777))
	f.Add(uint8(3), uint64(5), uint16(1), uint8(0), uint8(0), uint32(4096))
	f.Add(uint8(4), uint64(6), uint16(0), uint8(0), uint8(0), uint32(31))
	f.Fuzz(func(t *testing.T, shape uint8, seed uint64, numBlocks uint16, numFuncs, meanBlockLen uint8, steps uint32) {
		budget := int(steps % 20001)
		site := fuzzSite(seed)
		switch shape % 5 {
		case 0:
			sp := calSpec(seed, &MixTargets{
				Biased: 0.45, Loop: 0.25, Correlated: 0.08, Pattern: 0.05, Random: 0.17,
				PTaken: 0.995, Trip: 12, PatternMaxLen: 6, Steps: budget + 1, Rounds: 3,
			})
			sp.NumBlocks = 2 + int(numBlocks%300)
			sp.NumFuncs = 1 + int(numFuncs%12)
			sp.MeanBlockLen = 2 + float64(meanBlockLen%14)
			checkCalibrationRounds(t, sp)
		case 1:
			checkSiteCounts(t, recursiveProgram(seed, 1+uint32(numBlocks)%2048), budget)
		case 2:
			checkSiteCounts(t, unmatchedReturnProgram(seed, site), budget)
		case 3:
			checkSiteCounts(t, escapingProgram(seed, site, escapeTargets[int(numBlocks)%len(escapeTargets)]), budget)
		case 4:
			checkSiteCounts(t, fallOffProgram(seed, site), budget)
		}
	})
}
