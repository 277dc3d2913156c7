package multiprobe

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"bilsh/internal/lattice"
	"bilsh/internal/xrand"
)

// refRingProbes is the fully sorted ring expansion the scratch-based
// generator replaced (the oracle internal/core/equiv_test.go also
// carries): every code is entered into one set from the first ring on,
// and every ring is sorted whole, by distance and then by Key byte order.
// It is that string-keyed expansion with two costs taken out, so that the
// fuzz target can afford the second ring at M = 16: the set is keyed by a
// fixed-size array of the code's offsets from home (M ≤ refMaxM; each
// ring moves a coordinate by at most 2), so a repeated code costs neither
// an allocation nor a long hash, and each new code and its Key bytes are
// written once into per-ring arenas, not allocated per code and again per
// comparison of two tied codes.
func refRingProbes(home []int32, y []float64, count int) [][]int32 {
	if count <= 0 {
		return nil
	}
	probes := make([][]int32, 0, count)
	probes = append(probes, home)
	if count == 1 {
		return probes
	}
	codeLen := len(home)
	if codeLen > refMaxM {
		panic(fmt.Sprintf("refRingProbes: M = %d > %d", codeLen, refMaxM))
	}
	yy := make([]float64, codeLen)
	copy(yy, y)
	type cand struct {
		code []int32
		key  []byte
		d2   float64
	}
	setKey := func(code []int32) (k [refMaxM]int8) {
		for j, c := range code {
			off := c - home[j]
			if off != int32(int8(off)) {
				panic(fmt.Sprintf("refRingProbes: code %v too far from home %v", code, home))
			}
			k[j] = int8(off)
		}
		return k
	}
	seen := map[[refMaxM]int8]bool{setKey(home): true}
	frontier := [][]int32{home}
	for len(probes) < count && len(frontier) > 0 {
		// Arenas sized for every code the ring can add, so that no
		// append moves the codes and keys already handed out.
		most := len(frontier) * (codeLen / 8) * len(lattice.MinVectors())
		codes := make([]int32, 0, most*codeLen)
		keys := make([]byte, 0, most*4*codeLen)
		var ring []cand
		for _, base := range frontier {
			for b := 0; b+8 <= codeLen; b += 8 {
				for _, mv := range lattice.MinVectors() {
					var nb [refMaxM]int32
					copy(nb[:], base)
					for j := 0; j < 8; j++ {
						nb[b+j] += mv[j]
					}
					k := setKey(nb[:codeLen])
					if seen[k] {
						continue
					}
					seen[k] = true
					codes = append(codes, nb[:codeLen]...)
					code := codes[len(codes)-codeLen:]
					keys = lattice.AppendKey(keys, code)
					var d2 float64
					for j := 0; j < codeLen; j++ {
						diff := yy[j] - float64(code[j])/2
						d2 += diff * diff
					}
					ring = append(ring, cand{code: code, key: keys[len(keys)-4*codeLen:], d2: d2})
				}
			}
		}
		slices.SortFunc(ring, func(a, b cand) int {
			if a.d2 != b.d2 {
				if a.d2 < b.d2 {
					return -1
				}
				return 1
			}
			return bytes.Compare(a.key, b.key)
		})
		frontier = frontier[:0]
		for _, c := range ring {
			if len(probes) < count {
				probes = append(probes, c.code)
			}
			frontier = append(frontier, c.code)
		}
	}
	return probes
}

// refMaxM is the largest code length refRingProbes keys: the fuzz
// target's largest M.
const refMaxM = 24

// tieProjections returns projections that make exact distance ties, which
// only the Key byte order breaks: the query on a lattice point (every
// first-ring neighbor equidistant), on a deep hole of the block lattice,
// and with mirrored / repeated coordinates.
func tieProjections(m int) [][]float64 {
	onPoint := make([]float64, m) // the origin is a lattice point
	shifted := make([]float64, m)
	hole := make([]float64, m)
	mirrored := make([]float64, m)
	repeated := make([]float64, m)
	for i := range onPoint {
		shifted[i] = 1 // (1,…,1) is a lattice point of E8
		hole[i] = 0.5
		mirrored[i] = 0.25
		if i%2 == 1 {
			mirrored[i] = -0.25
		}
		repeated[i] = 0.3
	}
	hole[0] = 1 // (1, ½, …, ½) style deep hole
	return [][]float64{onPoint, shifted, hole, mirrored, repeated}
}

// TestRingProbesMatchReference requires the generated sequence to equal
// the oracle's code for code at every cut: inside the first ring, exactly
// at its end, one past it (a second ring of one probe), and deep into the
// second ring — on random projections and on exact ties — with one Scratch
// reused across the whole table so a multi-ring call is always followed by
// single-ring ones.
func TestRingProbesMatchReference(t *testing.T) {
	counts := []int{1, 2, 127, 128, 240, 241, 242, 481, 500, 2000}
	for _, m := range []int{8, 16, 24} {
		lat := lattice.NewE8(m)
		t.Run(fmt.Sprintf("E8/M=%d", m), func(t *testing.T) {
			ring1 := (lat.CodeLen() / 8) * len(e8Mins)
			rng := xrand.New(int64(17 + m))
			ys := tieProjections(m)
			for i := 0; i < 3; i++ {
				ys = append(ys, randomY(rng, m, 2))
			}
			var s Scratch
			for yi, y := range ys {
				// The oracle keys every second-ring code into a string map:
				// run it on every projection where that ring is one E8
				// block's (57 600 codes), on the first tie and the last
				// random projection for two blocks (230 400), and stay in
				// the first ring beyond.
				limit := counts[len(counts)-1]
				if ring2 := ring1 * ring1; ring2 > 250000 || ring2 > 60000 && yi != 0 && yi != len(ys)-1 {
					limit = 1 + ring1
				}
				// The oracle sorts every ring whole, so its sequence for a
				// smaller count is a prefix of the one for a larger.
				want := refRingProbes(lat.Decode(y), y, limit)
				for _, count := range counts {
					// Each count, then a short one on the same scratch.
					for _, c := range []int{min(count, limit), 3} {
						ProbesInto(&s, lat, y, c)
						if s.Probes() != min(len(want), c) {
							t.Fatalf("y#%d count=%d: %d probes, want %d", yi, c, s.Probes(), min(len(want), c))
						}
						for p := 0; p < s.Probes(); p++ {
							if !slices.Equal(s.Probe(p), want[p]) {
								t.Fatalf("y#%d count=%d: probe %d = %v, want %v", yi, c, p, s.Probe(p), want[p])
							}
						}
					}
				}
			}
		})
	}
}

// TestRingScratchRetention pins the pooled-scratch fix: a sequence that
// needs a second E8 ring (57 600 candidate codes) must not leave its dedup
// set or arenas behind, and a following default-sized sequence must not
// touch the set at all.
func TestRingScratchRetention(t *testing.T) {
	e := lattice.NewE8(8)
	y := randomY(xrand.New(4), 8, 2)
	var s Scratch
	E8ProbesInto(&s, e, y, 300)
	if s.Probes() != 300 {
		t.Fatalf("got %d probes, want 300", s.Probes())
	}
	if s.seen != nil || s.ringCodes != nil || s.frontier != nil || s.ringRecs != nil || s.ringSorted != nil || s.ringEnds != nil {
		t.Fatalf("second-ring state retained: seen=%d ringCodes=%d frontier=%d ringRecs=%d ringSorted=%d ringEnds=%d",
			len(s.seen), cap(s.ringCodes), cap(s.frontier), cap(s.ringRecs), cap(s.ringSorted), cap(s.ringEnds))
	}
	E8ProbesInto(&s, e, y, 128)
	if s.Probes() != 128 {
		t.Fatalf("got %d probes, want 128", s.Probes())
	}
	if s.seen != nil {
		t.Fatalf("first-ring sequence built a dedup set of %d", len(s.seen))
	}
	if got, limit := cap(s.ringCodes), ringRetainCodes*e.CodeLen(); got > limit {
		t.Fatalf("first-ring arena holds %d ints, above the %d high-water mark", got, limit)
	}
	// Steady state: the first-ring buffers are reused, not regrown.
	if allocs := testing.AllocsPerRun(50, func() { E8ProbesInto(&s, e, y, 128) }); allocs != 0 {
		t.Fatalf("first-ring sequence allocates %.1f/op on a warm scratch", allocs)
	}
	// The mark is for what a second ring leaves behind. A wide lattice's
	// first ring (20 blocks, 4800 codes) is above it and is still the
	// steady state of every query on that index: it must be kept.
	wide := lattice.NewE8(160)
	yw := randomY(xrand.New(5), 160, 2)
	E8ProbesInto(&s, wide, yw, 128)
	if allocs := testing.AllocsPerRun(5, func() { E8ProbesInto(&s, wide, yw, 128) }); allocs != 0 {
		t.Fatalf("wide first-ring sequence allocates %.1f/op on a warm scratch", allocs)
	}
}

// otherLattice satisfies lattice.Lattice without being one ProbesInto
// knows.
type otherLattice struct{ *lattice.ZM }

func TestProbesIntoUnknownLattice(t *testing.T) {
	var s Scratch
	z := lattice.NewZM(4)
	ProbesInto(&s, z, []float64{0.1, 0.2, 0.3, 0.4}, 5)
	if s.Probes() != 5 {
		t.Fatalf("got %d probes, want 5", s.Probes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown lattice type did not panic")
		}
		if s.Probes() != 0 {
			t.Fatalf("scratch still holds %d probes of the previous sequence", s.Probes())
		}
	}()
	ProbesInto(&s, otherLattice{z}, []float64{0.1, 0.2, 0.3, 0.4}, 5)
}

// TestOrderRing checks the ring ordering on its own, against the library
// sort under the same order, for the distance shapes the bucket pass has
// to survive: spread out, all equal (empty interval), heavy exact ties,
// and a tight cluster with one far outlier (every record but one in the
// first bucket) — at every kind of cut, and with the quicksort's depth
// budget exhausted.
func TestOrderRing(t *testing.T) {
	rng := xrand.New(8)
	shapes := map[string]func(i int) float64{
		"spread": func(int) float64 { return rng.Float64() * 4 },
		"equal":  func(int) float64 { return 2 },
		"ties":   func(int) float64 { return float64(rng.Intn(5)) / 4 },
		"outlier": func(i int) float64 {
			if i == 0 {
				return 1e9
			}
			return 1 + rng.Float64()*1e-9
		},
	}
	for name, d2 := range shapes {
		for _, n := range []int{0, 1, 2, ringInsertionMax, ringInsertionMax + 1, 50, 240, 1500} {
			s := Scratch{codeLen: 2}
			recs := make([]ringRec, n)
			for i := range recs {
				s.ringCodes = append(s.ringCodes, int32(rng.Intn(7)), int32(i)) // distinct codes
				recs[i] = ringRec{d2bits: math.Float64bits(d2(i)), idx: int32(i)}
			}
			want := slices.Clone(recs)
			slices.SortFunc(want, func(a, b ringRec) int {
				if s.ringLess(a, b) {
					return -1
				}
				return 1
			})
			same := func(got []ringRec, k int) bool {
				for i := 0; i < k; i++ {
					if got[i].idx != want[i].idx {
						return false
					}
				}
				return true
			}
			for _, k := range []int{0, 1, n / 2, n - 1, n} {
				if k < 0 || k > n {
					continue
				}
				s.ringRecs = slices.Clone(recs)
				s.orderRing(k)
				if len(s.ringRecs) != n || !same(s.ringRecs, k) {
					t.Fatalf("%s n=%d k=%d: first k records are not the k smallest in order", name, n, k)
				}
			}
			got := slices.Clone(recs)
			s.sortRing(got, 0)
			if !same(got, n) {
				t.Fatalf("%s n=%d: sortRing with no depth left is out of order", name, n)
			}
		}
	}
}

// fuzzProjection reads an m-dim projection from raw, two bytes a, b per
// coordinate (missing bytes read as zero): a quarter-integer b/4 when a is
// even — integers and half-integers, so lattice points, deep holes and
// exact distance ties are common — and the finer (a<<8|b)/1024 otherwise.
func fuzzProjection(raw []byte, m int) []float64 {
	y := make([]float64, m)
	for j := range y {
		var a, b byte
		if 2*j+1 < len(raw) {
			a, b = raw[2*j], raw[2*j+1]
		}
		if a%2 == 0 {
			y[j] = float64(int8(b)) / 4
		} else {
			y[j] = float64(int16(uint16(a)<<8|uint16(b))) / 1024
		}
	}
	return y
}

// FuzzRingProbes holds the generator to refRingProbes code for code on
// arbitrary projections, for E8 with M = 8, 16 and 24 and counts 1…600
// (one ring, a ring and its end, and into a second ring), on a fresh
// scratch and again on the same scratch.
func FuzzRingProbes(f *testing.F) {
	for sel, m := range []int{8, 16, 24} {
		for _, y := range tieProjections(m) {
			raw := make([]byte, 2*m)
			for j, v := range y {
				raw[2*j+1] = byte(int8(v * 4)) // every tie projection is on the quarter grid
			}
			f.Add(uint8(sel), uint16(241), raw)
		}
		// A different lattice point in every block, (b, …, b) in block b:
		// all neighbors are equidistant, and two in different blocks first
		// differ where their home codes differ too.
		steps := make([]byte, 2*m)
		for j := 0; j < m; j++ {
			steps[2*j+1] = byte(4 * (j / 8))
		}
		f.Add(uint8(sel), uint16(240), steps)
		f.Add(uint8(sel), uint16(599), []byte{1, 7, 3, 200, 5, 9, 0, 2, 11, 90})
	}
	f.Fuzz(func(t *testing.T, sel uint8, count uint16, raw []byte) {
		m := 8 * (1 + int(sel%3))
		c := 1 + int(count%600)
		y := fuzzProjection(raw, m)
		lat := lattice.NewE8(m)
		want := refRingProbes(lat.Decode(y), y, c)
		var s Scratch
		for run := 0; run < 2; run++ {
			ProbesInto(&s, lat, y, c)
			if s.Probes() != len(want) {
				t.Fatalf("M=%d count=%d y=%v run %d: %d probes, want %d", m, c, y, run, s.Probes(), len(want))
			}
			for p := range want {
				if !slices.Equal(s.Probe(p), want[p]) {
					t.Fatalf("M=%d count=%d y=%v run %d: probe %d = %v, want %v", m, c, y, run, p, s.Probe(p), want[p])
				}
			}
		}
	})
}
