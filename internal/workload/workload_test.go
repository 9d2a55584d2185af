package workload

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"treesched/internal/rng"
)

func TestPoissonBasics(t *testing.T) {
	r := rng.New(1)
	tr, err := Poisson(r, GenConfig{N: 500, Size: UniformSize{1, 5}, Load: 0.8, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 500 {
		t.Fatalf("N = %d", len(tr.Jobs))
	}
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i].Release <= tr.Jobs[i-1].Release {
			t.Fatal("arrival times not strictly increasing")
		}
	}
}

func TestPoissonLoadCalibration(t *testing.T) {
	r := rng.New(2)
	const load, capacity = 0.5, 4.0
	size := UniformSize{2, 4}
	tr, err := Poisson(r, GenConfig{N: 20000, Size: size, Load: load, Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	// Offered work per unit time should be ~ load*capacity.
	offered := tr.TotalWork() / tr.Span()
	if math.Abs(offered-load*capacity)/(load*capacity) > 0.05 {
		t.Fatalf("offered load %v, want ~%v", offered, load*capacity)
	}
}

func TestPoissonRejectsBadConfig(t *testing.T) {
	r := rng.New(1)
	if _, err := Poisson(r, GenConfig{N: 0, Size: UniformSize{1, 2}, Load: 1}); err == nil {
		t.Fatal("accepted N=0")
	}
	if _, err := Poisson(r, GenConfig{N: 5, Load: 1}); err == nil {
		t.Fatal("accepted nil size dist")
	}
	if _, err := Poisson(r, GenConfig{N: 5, Size: UniformSize{1, 2}, Load: 0}); err == nil {
		t.Fatal("accepted zero load")
	}
}

func TestBursty(t *testing.T) {
	r := rng.New(3)
	tr, err := Bursty(r, GenConfig{N: 100, Size: UniformSize{1, 2}, Load: 0.9, Capacity: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Bursty(r, GenConfig{N: 10, Size: UniformSize{1, 2}, Load: 1}, 0); err == nil {
		t.Fatal("accepted burstLen=0")
	}
}

func TestAdversarial(t *testing.T) {
	tr := Adversarial(rng.New(1), 50, 16)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Jobs[0].Size != 16 {
		t.Fatal("first adversarial job should be big")
	}
}

func TestRoundToClass(t *testing.T) {
	cases := []struct{ size, eps float64 }{
		{1, 0.5}, {1.4, 0.5}, {7.3, 0.1}, {100, 0.25}, {0.3, 0.5},
	}
	for _, c := range cases {
		v := RoundToClass(c.size, c.eps)
		if v < c.size {
			t.Fatalf("RoundToClass(%v,%v) = %v below input", c.size, c.eps, v)
		}
		if v > c.size*(1+c.eps)*(1+1e-9) {
			t.Fatalf("RoundToClass(%v,%v) = %v overshoots a class", c.size, c.eps, v)
		}
		// Result is a power of (1+eps).
		k := math.Log(v) / math.Log(1+c.eps)
		if math.Abs(k-math.Round(k)) > 1e-6 {
			t.Fatalf("RoundToClass(%v,%v) = %v not a class boundary", c.size, c.eps, v)
		}
	}
}

// An eps with 1+eps == 1 has no class above 1, so rounding a size
// above 1 could never stop; RoundToClass refuses it as it refuses a
// non-positive eps. The call runs under a deadline, so a search that
// spins fails the test instead of hanging it.
func TestRoundToClassRejectsVanishingEps(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		RoundToClass(2, 1e-17)
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("RoundToClass(2, 1e-17) returned instead of panicking")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RoundToClass(2, 1e-17) did not return within 2s")
	}
}

func TestRoundToClassProperty(t *testing.T) {
	check := func(sRaw, eRaw uint16) bool {
		size := 0.01 + float64(sRaw)/100
		eps := 0.05 + float64(eRaw%200)/100
		v := RoundToClass(size, eps)
		return v >= size && v <= size*(1+eps)*(1+1e-9)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassOf(t *testing.T) {
	eps := 0.5
	for k := -3; k <= 10; k++ {
		size := math.Pow(1+eps, float64(k))
		if got := ClassOf(size, eps); got != k {
			t.Fatalf("ClassOf(%v) = %d, want %d", size, got, k)
		}
	}
}

func TestClassRoundedDist(t *testing.T) {
	r := rng.New(5)
	d := ClassRounded{Base: UniformSize{1, 10}, Eps: 0.5}
	for i := 0; i < 1000; i++ {
		v := d.Sample(r)
		k := math.Log(v) / math.Log(1.5)
		if math.Abs(k-math.Round(k)) > 1e-6 {
			t.Fatalf("sample %v is not a class size", v)
		}
	}
}

func TestBimodalMean(t *testing.T) {
	d := BimodalSize{Small: 1, Big: 100, PBig: 0.1}
	want := 0.1*100 + 0.9*1
	if d.Mean() != want {
		t.Fatalf("Mean = %v, want %v", d.Mean(), want)
	}
	r := rng.New(7)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	if math.Abs(sum/n-want)/want > 0.05 {
		t.Fatalf("empirical mean %v, want ~%v", sum/n, want)
	}
}

func TestParetoCap(t *testing.T) {
	d := ParetoSize{Min: 1, Alpha: 1.2, Cap: 50}
	r := rng.New(9)
	for i := 0; i < 10000; i++ {
		v := d.Sample(r)
		if v < 1 || v > 50 {
			t.Fatalf("sample %v out of [1,50]", v)
		}
	}
	if d.Mean() <= 0 {
		t.Fatal("Pareto mean must be positive")
	}
}

func TestMakeUnrelated(t *testing.T) {
	r := rng.New(11)
	tr, _ := Poisson(r, GenConfig{N: 50, Size: UniformSize{1, 4}, Load: 0.5})
	err := MakeUnrelated(r, tr, UnrelatedConfig{Leaves: 6, Lo: 0.5, Hi: 2, PInfeasible: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		if !j.Unrelated() || len(j.LeafSizes) != 6 {
			t.Fatal("job missing per-leaf sizes")
		}
		for li := 0; li < 6; li++ {
			if j.LeafSize(li) <= 0 {
				t.Fatal("non-positive leaf size")
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMakeUnrelatedRejectsBadConfig(t *testing.T) {
	r := rng.New(1)
	tr, _ := Poisson(r, GenConfig{N: 5, Size: UniformSize{1, 2}, Load: 1})
	if err := MakeUnrelated(r, tr, UnrelatedConfig{Leaves: 0, Lo: 1, Hi: 2}); err == nil {
		t.Fatal("accepted Leaves=0")
	}
	if err := MakeUnrelated(r, tr, UnrelatedConfig{Leaves: 2, Lo: 2, Hi: 1}); err == nil {
		t.Fatal("accepted Hi<Lo")
	}
}

func TestRoundTraceToClasses(t *testing.T) {
	r := rng.New(13)
	tr, _ := Poisson(r, GenConfig{N: 30, Size: UniformSize{1, 9}, Load: 0.5})
	MakeUnrelated(r, tr, UnrelatedConfig{Leaves: 3, Lo: 0.5, Hi: 2})
	RoundTraceToClasses(tr, 0.5)
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		k := math.Log(j.Size) / math.Log(1.5)
		if math.Abs(k-math.Round(k)) > 1e-6 {
			t.Fatalf("router size %v not class rounded", j.Size)
		}
		for _, s := range j.LeafSizes {
			k := math.Log(s) / math.Log(1.5)
			if math.Abs(k-math.Round(k)) > 1e-6 {
				t.Fatalf("leaf size %v not class rounded", s)
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := rng.New(15)
	tr, _ := Poisson(r, GenConfig{N: 20, Size: UniformSize{1, 3}, Load: 0.7})
	MakeUnrelated(r, tr, UnrelatedConfig{Leaves: 2, Lo: 0.5, Hi: 2})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(tr.Jobs) {
		t.Fatal("job count changed in round trip")
	}
	for i := range got.Jobs {
		if got.Jobs[i].Release != tr.Jobs[i].Release || got.Jobs[i].Size != tr.Jobs[i].Size {
			t.Fatalf("job %d changed in round trip", i)
		}
	}
	// Trace files written before the Meta map was dropped still load.
	old := `{"Jobs":[{"ID":0,"Release":1,"Size":2}],"Meta":{"process":"poisson","endpoints":"related"}}`
	got, err = ReadJSON(bytes.NewBufferString(old))
	if err != nil || len(got.Jobs) != 1 || got.Jobs[0].Size != 2 {
		t.Fatalf("trace with a Meta object: %+v, %v", got, err)
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString(`{"Jobs":[{"ID":0,"Release":1,"Size":-2}]}`)); err == nil {
		t.Fatal("accepted negative size")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`not json`)); err == nil {
		t.Fatal("accepted garbage")
	}
}

func TestValidateCatchesUnsorted(t *testing.T) {
	tr := &Trace{Jobs: []Job{{ID: 0, Release: 2, Size: 1}, {ID: 1, Release: 1, Size: 1}}}
	if err := tr.Validate(); err == nil {
		t.Fatal("unsorted trace accepted")
	}
	tr2 := &Trace{Jobs: []Job{{ID: 5, Release: 1, Size: 1}}}
	if err := tr2.Validate(); err == nil {
		t.Fatal("non-dense IDs accepted")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, _ := Poisson(rng.New(42), GenConfig{N: 100, Size: ParetoSize{Min: 1, Alpha: 1.5, Cap: 100}, Load: 0.8})
	b, _ := Poisson(rng.New(42), GenConfig{N: 100, Size: ParetoSize{Min: 1, Alpha: 1.5, Cap: 100}, Load: 0.8})
	for i := range a.Jobs {
		if a.Jobs[i].Release != b.Jobs[i].Release || a.Jobs[i].Size != b.Jobs[i].Size {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestMakeRelated(t *testing.T) {
	r := rng.New(41)
	tr, _ := Poisson(r, GenConfig{N: 20, Size: UniformSize{Lo: 2, Hi: 4}, Load: 0.5})
	speeds := []float64{1, 2, 0.5}
	if err := MakeRelated(tr, speeds); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		for li, s := range speeds {
			if math.Abs(j.LeafSize(li)-j.Size/s) > 1e-12 {
				t.Fatalf("related size mismatch: leaf %d", li)
			}
		}
	}
	if err := MakeRelated(tr, nil); err == nil {
		t.Fatal("accepted empty speeds")
	}
	if err := MakeRelated(tr, []float64{1, -1}); err == nil {
		t.Fatal("accepted negative speed")
	}
}

func TestAssignWeights(t *testing.T) {
	r := rng.New(43)
	tr, _ := Poisson(r, GenConfig{N: 200, Size: UniformSize{Lo: 1, Hi: 2}, Load: 0.5})
	AssignWeights(r, tr, 5)
	seen := map[float64]bool{}
	for i := range tr.Jobs {
		w := tr.Jobs[i].Weight
		if w < 1 || w > 5 || w != math.Trunc(w) {
			t.Fatalf("weight %v out of [1,5] integers", w)
		}
		seen[w] = true
	}
	if len(seen) != 5 {
		t.Fatalf("weights covered %d/5 values", len(seen))
	}
}

func TestAssignWeightsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("maxWeight 0 accepted")
		}
	}()
	AssignWeights(rng.New(1), &Trace{}, 0)
}

func TestTraceStats(t *testing.T) {
	r := rng.New(51)
	tr, _ := Poisson(r, GenConfig{N: 100, Size: UniformSize{Lo: 2, Hi: 4}, Load: 0.5})
	st := tr.Stats()
	if st.Jobs != 100 || st.MeanSize < 2 || st.MeanSize > 4 || st.MaxSize < st.MeanSize {
		t.Fatalf("bad stats %+v", st)
	}
	if st.Unrelated || st.Weighted {
		t.Fatal("plain trace flagged as unrelated/weighted")
	}
	MakeUnrelated(r, tr, UnrelatedConfig{Leaves: 2, Lo: 0.5, Hi: 2})
	AssignWeights(r, tr, 3)
	st = tr.Stats()
	if !st.Unrelated {
		t.Fatal("unrelated not detected")
	}
	if st.OfferedPerSec <= 0 {
		t.Fatal("offered rate missing")
	}
	if (&Trace{}).Stats().Jobs != 0 {
		t.Fatal("empty trace stats")
	}
}

// A class value Pow(1+eps, k) rounds to itself, bit for bit, and the
// values either side of it round to it and to the class above: the log
// ratio of a class value can land a hair above k, and a guard that
// multiplies by 1+eps can return bits Pow does not. At eps 0.3, 30 of
// the 41 class values for k = 0…40 used to move up a class.
func TestRoundToClassKeepsClassValues(t *testing.T) {
	if got := RoundToClass(1.6900000000000002, 0.3); got != 1.6900000000000002 {
		t.Errorf("RoundToClass(1.6900000000000002, 0.3) = %v, want the class value itself", got)
	}
	if got := RoundToClass(2.1970000000000005, 0.3); got != 2.1970000000000005 {
		t.Errorf("RoundToClass(2.1970000000000005, 0.3) = %v, want the class value itself", got)
	}
	for _, eps := range []float64{0.1, 0.25, 0.3, 0.5, 1} {
		for k := -10; k <= 40; k++ {
			c := math.Pow(1+eps, float64(k))
			if got := RoundToClass(c, eps); got != c {
				t.Errorf("eps %v: class value Pow(1+eps, %d) = %v rounds to %v", eps, k, c, got)
			}
			if got := RoundToClass(math.Nextafter(c, 0), eps); got != c {
				t.Errorf("eps %v: just below class %d (%v) rounds to %v, want %v", eps, k, c, got, c)
			}
			up := math.Pow(1+eps, float64(k+1))
			if got := RoundToClass(math.Nextafter(c, math.Inf(1)), eps); got != up {
				t.Errorf("eps %v: just above class %d (%v) rounds to %v, want %v", eps, k, c, got, up)
			}
			if got := RoundToClass(RoundToClass(c*1.01, eps), eps); got != RoundToClass(c*1.01, eps) {
				t.Errorf("eps %v: rounding %v twice gives %v, not %v", eps, c*1.01, got, RoundToClass(c*1.01, eps))
			}
		}
	}
}
