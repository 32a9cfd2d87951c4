package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"

	"calloc/internal/attack"
	"calloc/internal/core"
	"calloc/internal/device"
	"calloc/internal/fingerprint"
	"calloc/internal/floorplan"
	"calloc/internal/localizer"
)

const (
	// buildingID is the paper's Building 1: 156 visible APs, 64 reference
	// points, five offline fingerprints per RP (a 320-sample attention
	// memory). The benchmark serves two floors of it.
	buildingID = 1
	numFloors  = 2

	// attackedShare of the query pool is FGSM-perturbed against the served
	// model at the curriculum's ε and the trainer's ø.
	attackedShare = 0.25
	attackEpsilon = 0.1
	attackPhi     = 50
)

// derive maps the run seed and a purpose label to an independent seed, so
// every random choice of a run follows from --seed alone.
func derive(seed int64, label string, k int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, k)
	return int64(h.Sum64() >> 1)
}

// collectFloors generates the two floor datasets of a run. The seed draws
// every fingerprint capture; the floorplans themselves stay those of
// floorplan seeds 1 and 2 (what calloc-data -seed 1 and -seed 2 build), so
// runs serve the same building and its errors do not swing with a redrawn
// AP layout.
func collectFloors(seed int64) ([]*fingerprint.Dataset, error) {
	spec, err := floorplan.SpecByID(buildingID)
	if err != nil {
		return nil, err
	}
	out := make([]*fingerprint.Dataset, numFloors)
	for f := range out {
		cfg := fingerprint.DefaultCollectConfig()
		cfg.Seed = derive(seed, "collect", f)
		ds, err := fingerprint.Collect(floorplan.Build(spec, int64(f+1)), device.Registry(), cfg)
		if err != nil {
			return nil, err
		}
		out[f] = ds
	}
	return out, nil
}

// query is one fingerprint of the query pool: an online test capture of one
// device at one RP of one floor, FGSM-perturbed for a fixed share of the
// pool.
type query struct {
	floor, rp int // ground truth
	attacked  bool
	rss       []float64
}

// pool builds the query pool: every device's test fingerprints on every
// floor, with a seeded attackedShare of them replaced by FGSM perturbations
// crafted against the CALLOC model served for their floor. models[f] is
// that model.
func pool(seed int64, dss []*fingerprint.Dataset, models []*core.Model) []query {
	var qs []query
	for f, ds := range dss {
		devs := make([]string, 0, len(ds.Test))
		for d := range ds.Test {
			devs = append(devs, d)
		}
		sort.Strings(devs)
		for _, d := range devs {
			for _, s := range ds.Test[d] {
				qs = append(qs, query{floor: f, rp: s.RP, rss: s.RSS})
			}
		}
	}
	rng := newRand(derive(seed, "attacked", 0))
	perm := rng.Perm(len(qs))
	attacked := perm[:int(attackedShare*float64(len(qs)))]
	sort.Ints(attacked)
	for f := range dss {
		var idx []int
		var clean []fingerprint.Sample
		for _, i := range attacked {
			if qs[i].floor == f {
				idx = append(idx, i)
				clean = append(clean, fingerprint.Sample{RSS: qs[i].rss, RP: qs[i].rp})
			}
		}
		if len(idx) == 0 {
			continue
		}
		adv := attack.Craft(attack.FGSM, models[f], fingerprint.X(clean), fingerprint.Labels(clean),
			attack.Config{Epsilon: attackEpsilon, PhiPercent: attackPhi, Seed: derive(seed, "aps", f)})
		for j, i := range idx {
			qs[i].rss = append([]float64(nil), adv.Data[j*adv.Cols:(j+1)*adv.Cols]...)
			qs[i].attacked = true
		}
	}
	return qs
}

// servedModel returns the core.Model behind a registry key.
func servedModel(reg *localizer.Registry, key localizer.Key) (*core.Model, localizer.Snapshot, error) {
	snap, ok := reg.Get(key)
	if !ok {
		return nil, snap, fmt.Errorf("%s not registered", key)
	}
	m, ok := localizer.Unwrap(snap.Localizer).(*core.Model)
	if !ok {
		return nil, snap, fmt.Errorf("%s does not serve a core.Model", key)
	}
	return m, snap, nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// order is a seeded permutation of n stream positions.
func order(seed int64, label string, n int) []int {
	return newRand(derive(seed, label, 0)).Perm(n)
}

// appendRSS writes rss as a JSON number array with round-trip precision,
// so the server decodes exactly the float64s the expectations were
// computed on.
func appendRSS(b []byte, rss []float64) []byte {
	b = append(b, '[')
	for i, v := range rss {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// localizeBody is a floor-less /v1/localize body: the phone does not know
// its floor.
func localizeBody(q query) []byte {
	b := []byte(`{"rss":`)
	b = appendRSS(b, q.rss)
	return append(b, '}')
}

// feedbackBody reports a fingerprint with its true RP and floor.
func feedbackBody(q query) []byte {
	b := []byte(`{"rss":`)
	b = appendRSS(b, q.rss)
	b = append(b, `,"rp":`...)
	b = strconv.AppendInt(b, int64(q.rp), 10)
	b = append(b, `,"floor":`...)
	b = strconv.AppendInt(b, int64(q.floor), 10)
	return append(b, '}')
}

// walk is one recorded walk of the bulk job: one device's pass over every
// RP of one floor, in path order, localized with the floor given.
type walk struct {
	floor int
	rows  []int // pool indices
}

// walks groups the pool into walks of walkRows consecutive fingerprints of
// the same floor (the pool lists each device's captures in RP order).
func walks(qs []query, walkRows int) []walk {
	var out []walk
	for start := 0; start+walkRows <= len(qs); start += walkRows {
		w := walk{floor: qs[start].floor}
		for i := start; i < start+walkRows; i++ {
			if qs[i].floor != w.floor {
				return nil
			}
			w.rows = append(w.rows, i)
		}
		out = append(out, w)
	}
	return out
}

// batchBody is a /v1/localize/batch body carrying a walk's rows with their
// floor.
func batchBody(qs []query, w walk) []byte {
	b := []byte(`{"queries":[`)
	for j, i := range w.rows {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"rss":`...)
		b = appendRSS(b, qs[i].rss)
		b = append(b, `,"floor":`...)
		b = strconv.AppendInt(b, int64(w.floor), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}
