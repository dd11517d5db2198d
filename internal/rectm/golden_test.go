package rectm_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/cf"
	"repro/internal/config"
	"repro/internal/rectm"
	"repro/internal/scenario"
)

// goldenOptions are the options core.New passes to rectm.Train.
var goldenOptions = rectm.Options{Seed: 42, Learners: 10}

// trainDigest trains a recommender on the matrix proteustm.Open builds for
// an 8-thread default space with seed 42, and returns the selected learner
// name and an FNV-64 over the bits of every model-selection score (in the
// order SelectModel returns them) followed by the ensemble's PredictDist
// mean and variance on three fixed partial rows.
func trainDigest(t *testing.T) (string, uint64) {
	t.Helper()
	train := scenario.SyntheticTraining(config.DefaultSpace(8), 60, 42)
	rec, err := rectm.Train(train, true, goldenOptions)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the ratings Train selects on, to reach the scored list.
	norm := &cf.Distiller{}
	goodness := cf.GoodnessMatrix(train, true)
	if err := norm.Fit(goodness); err != nil {
		t.Fatal(err)
	}
	ratings, _ := cf.NormalizeMatrix(norm, goodness)
	best, scored := cf.SelectModel(ratings, cf.DefaultCandidates(), goldenOptions.CVFolds, goldenOptions.SearchBudget, goldenOptions.Seed)
	if best.Name != rec.Selected {
		t.Fatalf("SelectModel picked %q, Train picked %q", best.Name, rec.Selected)
	}

	h := fnv.New64a()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, c := range scored {
		h.Write([]byte(c.Name))
		put(c.Score)
	}
	// Three partial rows: every third, fourth and fifth configuration of
	// rating rows 0, 7 and 19 known, the rest missing.
	for k, u := range []int{0, 7, 19} {
		row := make([]float64, ratings.Cols)
		for i := range row {
			row[i] = cf.Missing
			if i%(k+3) == 0 {
				row[i] = ratings.Data[u][i]
			}
		}
		mean, variance := rec.Ensemble.PredictDist(row)
		for i := range mean {
			put(mean[i])
			put(variance[i])
		}
	}
	return rec.Selected, h.Sum64()
}

// TestTrainGolden pins the output of rectm.Train bit for bit at GOMAXPROCS 1
// and 2: model selection scores candidates concurrently, and neither the
// worker count nor the MF inner-loop layout may change a result. The values
// were recorded before candidate scoring became concurrent.
func TestTrainGolden(t *testing.T) {
	const (
		wantSelected = "knn-cosine"
		wantDigest   = uint64(0xc7a9a459a93a6fad)
	)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		name, digest := trainDigest(t)
		runtime.GOMAXPROCS(prev)
		t.Logf("GOMAXPROCS=%d: selected %s digest %#x", procs, name, digest)
		if name != wantSelected || digest != wantDigest {
			t.Errorf("GOMAXPROCS=%d: got (%q, %#x), want (%q, %#x)", procs, name, digest, wantSelected, wantDigest)
		}
	}
}
