package trace

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// streamProfiles are the nine benchmark profiles with their phases
// shortened to a few hundred instructions, so a short stream crosses many
// phase boundaries.
func streamProfiles() []Profile {
	profs := Benchmarks()
	for i := range profs {
		phases := append([]Phase(nil), profs[i].Phases...)
		for k := range phases {
			phases[k].Insts = 300 + 77*k
		}
		profs[i].Phases = phases
	}
	return profs
}

// streamHash hashes n instructions of next's stream, every field.
func streamHash(n int, next func(*Inst)) uint64 {
	h := fnv.New64a()
	var inst Inst
	var b [20]byte
	for i := 0; i < n; i++ {
		next(&inst)
		b[0], b[1], b[2], b[3] = byte(inst.Class), inst.Dst, inst.Src1, inst.Src2
		if inst.Taken {
			b[3] |= 0x80
		}
		binary.LittleEndian.PutUint64(b[4:], inst.PC)
		binary.LittleEndian.PutUint64(b[12:], inst.Addr)
		h.Write(b[:])
	}
	return h.Sum64()
}

// streamHashes pins 100 000 instructions of every benchmark's stream (with
// shortened phases), as the float-threshold generator produced them.
var streamHashes = map[string]uint64{
	"mesa":    0x3d3916df1cb7b06b,
	"perlbmk": 0x69112d50b57c05e8,
	"gzip":    0x9caffc35acf5de17,
	"bzip2":   0x989d23f3c8549b1a,
	"eon":     0xbeb5866b38c990b0,
	"crafty":  0xab8c5262a5a30d6d,
	"vortex":  0x5e78b50193e5511a,
	"gcc":     0x1bab9bb1c83c79ae,
	"art":     0x5c8bdce638b3d227,
}

// TestFillMatchesNext: Next and Fill in batches of 1, 7 and 64 produce the
// pinned stream of every profile, across phase changes.
func TestFillMatchesNext(t *testing.T) {
	const n = 100_000
	for _, p := range streamProfiles() {
		g, err := NewGenerator(p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := streamHash(n, g.Next), streamHashes[p.Name]; got != want {
			t.Errorf("%s: Next stream hash %#x, want %#x", p.Name, got, want)
		}
		for _, batch := range []int{1, 7, 64} {
			g, err := NewGenerator(p)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]Inst, batch)
			pos := batch
			got := streamHash(n, func(inst *Inst) {
				if pos == batch {
					g.Fill(buf)
					pos = 0
				}
				*inst = buf[pos]
				pos++
			})
			if want := streamHashes[p.Name]; got != want {
				t.Errorf("%s: Fill(%d) stream hash %#x, want %#x", p.Name, batch, got, want)
			}
		}
	}
}

// TestFillAllocationFree: filling a batch never touches the heap.
func TestFillAllocationFree(t *testing.T) {
	g, err := NewGenerator(streamProfiles()[0])
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Inst, 64)
	var one Inst
	if allocs := testing.AllocsPerRun(100, func() { g.Fill(buf); g.Next(&one) }); allocs != 0 {
		t.Errorf("Fill/Next allocate %.1f times per call, want 0", allocs)
	}
}
