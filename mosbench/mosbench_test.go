package mosbench

import (
	"reflect"
	"strings"
	"testing"
)

func TestExperimentsListed(t *testing.T) {
	exps := Experiments()
	if len(exps) < 16 {
		t.Fatalf("Experiments() returned %d entries, want >= 16", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		ids[e.ID] = true
		if e.Title == "" || e.Paper == "" {
			t.Errorf("experiment %q has empty metadata", e.ID)
		}
	}
	for _, want := range []string{"fig3", "fig4", "fig11", "tbl-hw"} {
		if !ids[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("Run(nope) did not error")
	}
}

func TestRunValidatesShards(t *testing.T) {
	for _, o := range []Options{
		{Shards: 2, ShardIndex: 5},
		{Shards: 2, ShardIndex: -1},
		{Shards: -3},
		{ShardIndex: 2}, // index without Shards is out of range for 1 shard
	} {
		if _, err := Run("fig5", o); err == nil {
			t.Errorf("Run with Shards=%d ShardIndex=%d did not error", o.Shards, o.ShardIndex)
		}
	}
	// A valid worker combination runs and yields a partial grid.
	s, err := Run("fig5", Options{Quick: true, Shards: 2, ShardIndex: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run("fig5", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Point) == 0 || len(s.Point) >= len(full.Point) {
		t.Errorf("shard 1/2 computed %d of %d points; want a proper nonempty subset",
			len(s.Point), len(full.Point))
	}
}

func TestRunRejectsDuplicateCores(t *testing.T) {
	_, err := Run("fig4", Options{Quick: true, Cores: []int{8, 1, 8}})
	if err == nil || !strings.Contains(err.Error(), "core count 8") {
		t.Errorf("Run with Cores [8 1 8] returned %v, want an error naming the repeated count 8", err)
	}
}

func TestRunQuickFig5(t *testing.T) {
	s, err := Run("fig5", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != "fig5" || s.Unit == "" {
		t.Errorf("series metadata: %+v", s)
	}
	if _, ok := s.Get("PK", 48); !ok {
		t.Errorf("missing PK/48 point in %+v", s.Point)
	}
	if !strings.Contains(s.Table(), "cores") {
		t.Error("Table() output missing header")
	}
	if !strings.Contains(s.CSV(), "fig5,") {
		t.Error("CSV() output missing rows")
	}
}

func TestCacheServesRepeatedRuns(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Cache: c}
	first, err := Run("fig5", o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hits() != 0 || c.Misses() == 0 {
		t.Fatalf("cold run: %d hits, %d misses; want all misses", c.Hits(), c.Misses())
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	second, err := Run("fig5", o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Hits(), int64(len(first.Point)); got != want {
		t.Errorf("warm run hits = %d, want %d (every point)", got, want)
	}
	if !reflect.DeepEqual(first.Point, second.Point) {
		t.Errorf("cached points differ:\nfirst:  %+v\nsecond: %+v", first.Point, second.Point)
	}
}

func TestCacheStatsPerExperiment(t *testing.T) {
	c, err := OpenCacheLogged(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Cache: c}
	if _, err := Run("fig5", o); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("fig5", o); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	e, ok := st.Experiments["fig5"]
	if !ok {
		t.Fatalf("Stats() missing fig5 section: %+v", st)
	}
	if e.Hits == 0 || e.Misses == 0 || e.Hits != e.Misses || st.Points != int(e.Misses) || e.Points != st.Points {
		t.Errorf("fig5 stats %+v, %d points cached: want equal nonzero hits/misses and matching point count", e, st.Points)
	}
	if st.Hits != e.Hits || st.Misses != e.Misses || st.Invalidated != 0 {
		t.Errorf("totals %d/%d/%d disagree with fig5's %+v", st.Hits, st.Misses, st.Invalidated, e)
	}
}

func TestCustomCoreSweep(t *testing.T) {
	s, err := Run("fig9", Options{Cores: []int{1, 48}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Point {
		if p.Cores != 1 && p.Cores != 48 {
			t.Errorf("unexpected core count %d in custom sweep", p.Cores)
		}
	}
}
