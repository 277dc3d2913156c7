package lattice

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"bilsh/internal/xrand"
)

func TestZMDecode(t *testing.T) {
	z := NewZM(3)
	got := z.Decode([]float64{1.7, -0.2, 3.0})
	want := []int32{1, -1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode = %v, want %v", got, want)
	}
}

func TestZMAncestorEq8(t *testing.T) {
	z := NewZM(1)
	// Eq. 8: H^k(c) = 2^k * floor(c / 2^k), including negatives.
	cases := []struct {
		c    int32
		k    int
		want int32
	}{
		{5, 0, 5}, {5, 1, 4}, {5, 2, 4}, {5, 3, 0},
		{-5, 1, -6}, {-5, 2, -8}, {-1, 3, -8},
		{8, 2, 8},
	}
	for _, tc := range cases {
		got := z.Ancestor([]int32{tc.c}, tc.k)[0]
		if got != tc.want {
			t.Errorf("Ancestor(%d, %d) = %d, want %d", tc.c, tc.k, got, tc.want)
		}
	}
}

// Property: the telescoping identity (Eq. 9) — ancestor levels compose.
func TestZMAncestorComposes(t *testing.T) {
	z := NewZM(4)
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		c := make([]int32, 4)
		for i := range c {
			c[i] = int32(rng.Intn(2000) - 1000)
		}
		j := rng.Intn(5)
		k := rng.Intn(5)
		// ancestor_{j+k}(c) == ancestor_k(ancestor_j(c)) in *unscaled* terms;
		// with Eq. 8 scaling, ancestor_j output is already multiplied by 2^j,
		// so applying Ancestor(·, k) to it floors at 2^k on a 2^j-multiple,
		// which equals Ancestor(c, j+k) only when read at matching scale:
		a1 := z.Ancestor(c, j+k)
		a2 := z.Ancestor(z.Ancestor(c, j), j+k) // re-flooring scaled code at full depth
		return reflect.DeepEqual(a1, a2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZMCenter(t *testing.T) {
	z := NewZM(2)
	got := z.Center([]int32{1, -2})
	if got[0] != 1.5 || got[1] != -1.5 {
		t.Fatalf("Center = %v", got)
	}
}

func TestKeyInjective(t *testing.T) {
	a := Key([]int32{1, 2})
	b := Key([]int32{2, 1})
	c := Key([]int32{1, 2})
	if a == b {
		t.Fatal("distinct codes share a key")
	}
	if a != c {
		t.Fatal("equal codes must share a key")
	}
	if Key([]int32{-1}) == Key([]int32{1}) {
		t.Fatal("sign must be preserved in keys")
	}
}

func TestMinVectors(t *testing.T) {
	vs := MinVectors()
	if len(vs) != 240 {
		t.Fatalf("|MinVectors| = %d, want 240 (the E8 kissing number)", len(vs))
	}
	seen := make(map[[8]int32]bool, 240)
	for _, v := range vs {
		if seen[v] {
			t.Fatalf("duplicate minimal vector %v", v)
		}
		seen[v] = true
		// Doubled squared norm must be 4*2 = 8 (real norm^2 = 2).
		var n int32
		for _, x := range v {
			n += x * x
		}
		if n != 8 {
			t.Fatalf("minimal vector %v has doubled norm^2 %d, want 8", v, n)
		}
		if !IsE8(v) {
			t.Fatalf("minimal vector %v not in E8", v)
		}
	}
}

func TestIsE8(t *testing.T) {
	cases := []struct {
		p    [8]int32
		want bool
	}{
		{[8]int32{2, 2, 2, 2, 2, 2, 2, 2}, true},   // (1)^8: sum 8 even
		{[8]int32{1, 1, 1, 1, 1, 1, 1, 1}, true},   // (1/2)^8: sum 4 even
		{[8]int32{0, 2, 2, 2, 2, 2, 2, 2}, false},  // (0,1,...,1): sum 7 odd
		{[8]int32{2, 0, 0, 0, 0, 0, 0, 0}, false},  // (1,0,...): sum odd
		{[8]int32{2, 2, 0, 0, 0, 0, 0, 0}, true},   // (1,1,0,...): sum 2 even
		{[8]int32{1, 2, 2, 2, 2, 2, 2, 2}, false},  // mixed parity
		{[8]int32{-1, 1, 1, 1, 1, 1, 1, 1}, false}, // sum 3 odd
		{[8]int32{-1, -1, 1, 1, 1, 1, 1, 1}, true}, // sum 2 even
	}
	for _, tc := range cases {
		if got := IsE8(tc.p); got != tc.want {
			t.Errorf("IsE8(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// Property: DecodeE8 always returns an E8 point.
func TestDecodeE8Membership(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		var y [8]float64
		for i := range y {
			y[i] = rng.NormFloat64() * 3
		}
		return IsE8(DecodeE8(y))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding a lattice point returns that point (idempotence).
func TestDecodeE8Idempotent(t *testing.T) {
	vs := MinVectors()
	rng := xrand.New(99)
	for trial := 0; trial < 300; trial++ {
		// Random E8 point: sum of a few minimal vectors (E8 is closed
		// under addition).
		var p [8]int32
		for s := 0; s < 1+rng.Intn(4); s++ {
			v := vs[rng.Intn(len(vs))]
			for i := range p {
				p[i] += v[i]
			}
		}
		var y [8]float64
		for i := range y {
			y[i] = float64(p[i]) / 2
		}
		if got := DecodeE8(y); got != p {
			t.Fatalf("DecodeE8(point %v) = %v", p, got)
		}
	}
}

// Property: the decoded point is at least as close as the point's 240
// neighbors and as the rival coset decode (local optimality).
func TestDecodeE8LocalOptimality(t *testing.T) {
	vs := MinVectors()
	sqDist := func(y [8]float64, p [8]int32) float64 {
		var s float64
		for i := range y {
			d := y[i] - float64(p[i])/2
			s += d * d
		}
		return s
	}
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		var y [8]float64
		for i := range y {
			y[i] = rng.NormFloat64() * 2
		}
		p := DecodeE8(y)
		d := sqDist(y, p)
		for _, v := range vs {
			var q [8]int32
			for i := range q {
				q[i] = p[i] + v[i]
			}
			if sqDist(y, q) < d-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestE8DecodeBlocksAndPadding(t *testing.T) {
	e := NewE8(10) // two blocks, last 6 dims padded
	if e.CodeLen() != 16 {
		t.Fatalf("CodeLen = %d, want 16", e.CodeLen())
	}
	y := make([]float64, 10)
	y[8], y[9] = 1.0, 1.1
	c := e.Decode(y)
	if len(c) != 16 {
		t.Fatalf("code len = %d", len(c))
	}
	var first, second [8]int32
	copy(first[:], c[:8])
	copy(second[:], c[8:])
	if !IsE8(first) || !IsE8(second) {
		t.Fatal("block codes must be E8 points")
	}
	// First block decodes the origin: nearest E8 point to 0 is 0.
	if first != [8]int32{} {
		t.Fatalf("origin block decoded to %v", first)
	}
}

func TestE8AncestorScalingProperty(t *testing.T) {
	e := NewE8(8)
	rng := xrand.New(123)
	for trial := 0; trial < 100; trial++ {
		y := make([]float64, 8)
		for i := range y {
			y[i] = rng.NormFloat64() * 4
		}
		c := e.Decode(y)
		a := e.Ancestor(c, 1)
		// The level-1 ancestor must be 2x an E8 point (the scaled lattice),
		// i.e. halved doubled-coordinates still form an E8 point.
		var half [8]int32
		for i := range half {
			if a[i]%2 != 0 {
				t.Fatalf("ancestor %v not on 2*E8 (odd doubled coordinate)", a)
			}
			half[i] = a[i] / 2
		}
		if !IsE8(half) {
			t.Fatalf("ancestor/2 = %v not an E8 point", half)
		}
		// Ancestor(c, 0) must be a copy, not an alias.
		a0 := e.Ancestor(c, 0)
		a0[0] += 100
		if c[0] == a0[0] {
			t.Fatal("Ancestor(c,0) aliases input")
		}
	}
}

func TestE8AncestorLatticeMembershipAndDrift(t *testing.T) {
	// The level-k ancestor lies on the 2^k-scaled E8 lattice and stays
	// within the accumulated covering radius of the original point:
	// each step moves at most the level's covering distance 2^j (covering
	// radius of 2^j·E8 is 2^j), so |a_k − c| ≤ Σ_{j=1..k} 2^j < 2^{k+1}.
	// Note the ancestor does NOT converge to the origin — like the Z^M
	// ancestor, it is a coarser quantization of the same location, which
	// is why the E8 hierarchy build needs a virtual root.
	e := NewE8(8)
	rng := xrand.New(7)
	for trial := 0; trial < 30; trial++ {
		y := make([]float64, 8)
		for i := range y {
			y[i] = rng.NormFloat64() * 10
		}
		c := e.Decode(y)
		for k := 1; k <= 10; k++ {
			a := e.Ancestor(c, k)
			// Membership: halving doubled coords k+1 times must yield an
			// E8 point, i.e. a / 2^k is in E8 (doubled form: a >> k).
			var scaled [8]int32
			for i := range scaled {
				if a[i]%(1<<uint(k)) != 0 {
					t.Fatalf("level-%d ancestor %v not on 2^k lattice", k, a)
				}
				scaled[i] = a[i] / (1 << uint(k))
			}
			if !IsE8(scaled) {
				t.Fatalf("level-%d ancestor/2^k = %v not an E8 point", k, scaled)
			}
			// Drift bound in real coordinates (doubled/2).
			var drift float64
			for i := range a {
				d := float64(a[i]-c[i]) / 2
				drift += d * d
			}
			if math.Sqrt(drift) > float64(int32(2)<<uint(k)) {
				t.Fatalf("level-%d ancestor drifted %.2f > 2^{k+1}", k, math.Sqrt(drift))
			}
		}
	}
}

func TestLatticeInterfaceCompliance(t *testing.T) {
	var _ Lattice = NewZM(8)
	var _ Lattice = NewE8(8)
	z := NewZM(8)
	if z.Name() != "ZM" || z.M() != 8 {
		t.Fatal("ZM metadata wrong")
	}
	e := NewE8(12)
	if e.Name() != "E8" || e.M() != 12 || e.CodeLen() != 16 {
		t.Fatal("E8 metadata wrong")
	}
}

func TestE8CenterInverseOfKey(t *testing.T) {
	e := NewE8(8)
	y := []float64{0.6, -1.2, 0.1, 2.3, -0.7, 0.4, 1.9, -2.2}
	c := e.Decode(y)
	ctr := e.Center(c)
	// Center must be the actual lattice point (halved doubles).
	for i := range ctr {
		if ctr[i] != float64(c[i])/2 {
			t.Fatalf("Center[%d] = %v, want %v", i, ctr[i], float64(c[i])/2)
		}
	}
}

// D8 ⊂ E8: the integer-coset point the E8 decoder considers must itself be
// an E8 point, and the E8 decode of the same input can only be closer or
// equal.
func TestD8SubsetOfE8(t *testing.T) {
	rng := xrand.New(9)
	for trial := 0; trial < 200; trial++ {
		var y [8]float64
		for i := range y {
			y[i] = rng.NormFloat64() * 2
		}
		dp, _ := nearestD8(y, 0)
		if !IsE8(dp) {
			t.Fatalf("D8 point %v not in E8", dp)
		}
		ep := DecodeE8(y)
		var dDist, eDist float64
		for i := range y {
			dd := y[i] - float64(dp[i])/2
			ee := y[i] - float64(ep[i])/2
			dDist += dd * dd
			eDist += ee * ee
		}
		if eDist > dDist+1e-9 {
			t.Fatalf("E8 decode farther than D8 decode (%.4f > %.4f)", eDist, dDist)
		}
	}
}

func BenchmarkDecodeE8(b *testing.B) {
	rng := xrand.New(1)
	ys := make([][8]float64, 256)
	for i := range ys {
		for j := range ys[i] {
			ys[i][j] = rng.NormFloat64() * 3
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeE8(ys[i%len(ys)])
	}
}

func BenchmarkZMDecode(b *testing.B) {
	z := NewZM(8)
	rng := xrand.New(1)
	y := make([]float64, 8)
	for j := range y {
		y[j] = rng.NormFloat64() * 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Decode(y)
	}
}
