// External test package: these tests collect real signatures through
// pebil, which itself imports cluster (adaptive sampling's block
// clustering), so an in-package test would be an import cycle.
package cluster_test

import (
	"context"
	"testing"

	"tracex/internal/cluster"
	"tracex/internal/machine"
	"tracex/internal/pebil"
	"tracex/internal/synthapp"
)

// testCollector returns a collector released when the test ends.
func testCollector(t *testing.T) *pebil.Collector {
	t.Helper()
	col, err := pebil.NewCollector(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(col.Close)
	return col
}

func TestClusterRanksGroupsLoadClasses(t *testing.T) {
	// Collect a signature with one trace per load class plus duplicates;
	// clustering with k = classes must group identical-class ranks.
	app := synthapp.UH3D()
	bw := machine.BlueWatersP1()
	// Ranks 0..7 cover each of the 4 classes twice (round-robin).
	sig, err := testCollector(t).Collect(context.Background(), app, 1024, bw, []int{0, 1, 2, 3, 4, 5, 6, 7},
		pebil.CollectorConfig{SampleRefs: 50_000, MaxWarmRefs: 100_000})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	rc, err := cluster.ClusterRanks(sig, app.NumClasses(), 3)
	if err != nil {
		t.Fatalf("ClusterRanks: %v", err)
	}
	// Ranks r and r+4 share a class and must share a cluster.
	cOf := map[int]int{}
	for c, ranks := range rc.Clusters {
		for _, r := range ranks {
			cOf[r] = c
		}
	}
	for r := 0; r < 4; r++ {
		if cOf[r] != cOf[r+4] {
			t.Errorf("ranks %d and %d in different clusters (%d, %d)", r, r+4, cOf[r], cOf[r+4])
		}
	}
	// Each representative belongs to its own cluster.
	for c, rep := range rc.Representative {
		if rep < 0 {
			t.Errorf("cluster %d has no representative", c)
			continue
		}
		if cOf[rep] != c {
			t.Errorf("representative %d not in cluster %d", rep, c)
		}
	}
}

func TestClusterRanksValidation(t *testing.T) {
	app := synthapp.Stencil3D()
	bw := machine.BlueWatersP1()
	sig, err := testCollector(t).Collect(context.Background(), app, 64, bw, []int{0, 1},
		pebil.CollectorConfig{SampleRefs: 20_000, MaxWarmRefs: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.ClusterRanks(sig, 5, 1); err == nil {
		t.Error("k > rank count accepted")
	}
}
