package experiments

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/smm"
)

func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scale
	}{{"unit", Unit}, {"short", Short}, {"full", Full}} {
		got, err := ParseScale(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseScale(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() round trip %q", got)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("unknown scale must error")
	}
}

func TestSizesMonotone(t *testing.T) {
	u, s, f := Unit.sizes(), Short.sizes(), Full.sizes()
	if !(u.evalUEs < s.evalUEs && s.evalUEs < f.evalUEs) {
		t.Fatal("evalUEs must grow with scale")
	}
	if !(u.hours <= s.hours && s.hours <= f.hours) {
		t.Fatal("hours must grow with scale")
	}
	if f.evalUEs != 1000 {
		t.Fatalf("full-scale evalUEs %d; the paper synthesizes 1000 streams", f.evalUEs)
	}
	if f.hours != 6 {
		t.Fatalf("full-scale hours %d; the paper uses 6 hourly models", f.hours)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"a", "bbb"},
	}
	tbl.AddRow("x", "1")
	tbl.AddRow("longer", "2")
	out := tbl.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "longer") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{
		"table3", "figure2", "table4", "table5", "table6", "figure5",
		"table7", "table8", "figure6", "table9", "table10", "table11",
		"figure7", "ablation-batchgen", "ablation-logscale",
	}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("experiment %d = %q, want %q", i, got[i].ID, id)
		}
		if _, err := Lookup(id); err != nil {
			t.Fatalf("Lookup(%q): %v", id, err)
		}
	}
	if _, err := Lookup("table99"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestLabDatasetsCachedAndDisjoint(t *testing.T) {
	l := NewLab(Unit, 1)
	a, err := l.Train(events.Phone)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Train(events.Phone)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("train dataset must be cached")
	}
	te, err := l.Test(events.Phone)
	if err != nil {
		t.Fatal(err)
	}
	if te.NumEvents() == a.NumEvents() {
		t.Log("test and train coincide in event count (unlikely but possible)")
	}
	if te.Streams[0].Events[0] == a.Streams[0].Events[0] &&
		te.Streams[0].Events[1] == a.Streams[0].Events[1] {
		t.Fatal("test trace must differ from train trace (different seed)")
	}
}

// TestLabBuildsOnce pins the Lab cache's single flight under -race: two
// goroutines that ask for one model at once get the same model, built
// once — a second first caller waits for the first one's build — and a
// failed build is not cached.
func TestLabBuildsOnce(t *testing.T) {
	l := NewLab(Unit, 1)
	var wg sync.WaitGroup
	var got [2]*smm.Model
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := l.SMM(events.Phone, false)
			if err != nil {
				t.Error(err)
			}
			got[i] = m
		}(i)
	}
	wg.Wait()
	if got[0] == nil || got[0] != got[1] {
		t.Fatalf("two concurrent callers got SMMs %p and %p, want one", got[0], got[1])
	}

	// A second first caller arriving mid-build waits for that build.
	var builds atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	slow := func() (*smm.Model, error) {
		if builds.Add(1) == 1 {
			close(started)
			<-release
		}
		return &smm.Model{}, nil
	}
	out := make(chan *smm.Model, 2)
	get := func() {
		m, _ := cached(l, l.smmK, events.ConnectedCar, slow)
		out <- m
	}
	go get()
	<-started
	go get()
	close(release)
	if a, b := <-out, <-out; a == nil || a != b || builds.Load() != 1 {
		t.Fatalf("callers got %p and %p after %d builds, want one model built once", a, b, builds.Load())
	}

	// A failed build caches nothing: the next caller builds afresh.
	fail := func() (*smm.Model, error) {
		builds.Add(1)
		return nil, errors.New("build failed")
	}
	for i := 0; i < 2; i++ {
		if _, err := cached(l, l.smmK, events.Tablet, fail); err == nil {
			t.Fatal("a failed build returned no error")
		}
	}
	if builds.Load() != 3 {
		t.Fatalf("%d builds, want a fresh one after each failure", builds.Load())
	}
}

// TestFigure7Runs exercises the cheapest experiment end-to-end (no model
// training).
func TestFigure7Runs(t *testing.T) {
	l := NewLab(Unit, 1)
	r, err := Figure7(l)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "figure7" || len(r.Tables) != 1 || len(r.Tables[0].Rows) != 2 {
		t.Fatalf("unexpected report: %+v", r)
	}
	if !strings.Contains(r.String(), "log(t+1)") {
		t.Fatal("log-transform row missing")
	}
}

// TestTable3Runs exercises an experiment that trains a model (NetShare at
// unit scale) and checks the report structure.
func TestTable3Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	l := NewLab(Unit, 1)
	r, err := Table3(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables[0].Rows) < 2 {
		t.Fatalf("table 3 rows: %+v", r.Tables[0].Rows)
	}
	// Running again must hit the cache (fast, identical output).
	r2, err := Table3(l)
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != r2.String() {
		t.Fatal("cached re-run must be identical")
	}
}

// TestHourlySlicesDrift verifies the drift data used by Tables 4/9/10.
func TestHourlySlicesDrift(t *testing.T) {
	l := NewLab(Unit, 1)
	train, test, err := l.Hourly()
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != Unit.sizes().hours || len(test) != len(train) {
		t.Fatalf("hour counts: %d/%d", len(train), len(test))
	}
	for h, d := range train {
		if d.NumStreams() == 0 {
			t.Fatalf("hour %d empty", h)
		}
	}
}
