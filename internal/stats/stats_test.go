package stats

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestLevelObserveAndDerived(t *testing.T) {
	var l Level
	l.Observe(10, 100, true, false)
	l.Observe(30, 100, false, true)
	if l.Nodes != 2 || l.TotalCard != 40 || l.MinCard != 10 || l.MaxCard != 30 {
		t.Fatalf("level after two observations: %+v", l)
	}
	if l.BitsetNodes != 1 || l.UintNodes != 1 || l.Flips != 1 {
		t.Fatalf("layout counters: %+v", l)
	}
	if d := l.Density(); d != 40.0/200.0 {
		t.Errorf("Density = %f", d)
	}
	if a := l.AvgCard(); a != 20 {
		t.Errorf("AvgCard = %f", a)
	}
	if s := l.Skew(); s != 30.0/20.0 {
		t.Errorf("Skew = %f", s)
	}
	var zero Level
	if zero.Density() != 0 || zero.AvgCard() != 0 || zero.Skew() != 0 {
		t.Errorf("zero level derived stats must be 0, got %f %f %f",
			zero.Density(), zero.AvgCard(), zero.Skew())
	}
}

func TestChooserSnapshotUnderConcurrency(t *testing.T) {
	var c Chooser
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.RecordLayout(3, 2, 1)
				c.RecordEnginePick("pure-wcoj")
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.LayoutBitsetNodes != 2400 || s.LayoutUintNodes != 1600 || s.LayoutFlips != 800 {
		t.Fatalf("layout counters: %+v", s)
	}
	if s.EnginePicks["pure-wcoj"] != 800 {
		t.Fatalf("engine picks: %+v", s.EnginePicks)
	}
	// The snapshot must serialize with the documented field names — /stats
	// consumers key on them.
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"layout_bitset_nodes", "engine_picks"} {
		if !json.Valid(data) || !contains(string(data), key) {
			t.Errorf("snapshot JSON missing %q: %s", key, data)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
