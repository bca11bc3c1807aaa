package mc

import (
	"bytes"
	"context"
	"encoding/gob"
	"strings"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/storage"
)

func TestReuseSaveLoadRoundTrip(t *testing.T) {
	scn := compileFigure2(t)
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(scn, Options{Worlds: 80, Reuse: reuse})
	pt := point(10, 16, 32, 36)
	original, err := ev.EvaluatePoint(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reuse.Save(&buf); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadReuse(&buf, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.cfg.Length != reuse.cfg.Length {
		t.Error("config not restored")
	}
	// A fresh process with the loaded state: the same point is a pure
	// cache hit with zero VG invocations.
	reg := scn.Registry
	before := reg.TotalInvocations()
	ev2 := NewEvaluator(scn, Options{Worlds: 80, Reuse: loaded})
	res, err := ev2.EvaluatePoint(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	if reg.TotalInvocations() != before {
		t.Errorf("loaded state should serve the point without invocations (spent %d)",
			reg.TotalInvocations()-before)
	}
	for site, kind := range res.SiteOutcome {
		if kind != CachedExact {
			t.Errorf("site %s = %v after load, want cached", site, kind)
		}
	}
	for col := range original.Columns {
		for i := range original.Columns[col] {
			if res.Columns[col][i] != original.Columns[col][i] {
				t.Fatalf("column %s world %d differs after reload", col, i)
			}
		}
	}
	// Fingerprint mappings also survive: a moved purchase still maps.
	res2, err := ev2.EvaluatePoint(context.Background(), point(10, 20, 32, 36))
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.SiteOutcome["CapacityModel#0"]; got != Identity && got != Affine {
		t.Errorf("mapping after reload = %v, want identity or affine", got)
	}
}

func TestLoadReuseRejectsGarbage(t *testing.T) {
	if _, err := LoadReuse(strings.NewReader("not a snapshot"), storage.Options{}); err == nil {
		t.Error("garbage input should error")
	}
	if _, err := LoadReuse(bytes.NewReader(nil), storage.Options{}); err == nil {
		t.Error("empty input should error")
	}
	// A well-formed stream in the retired v1 layout is refused by version.
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(&reuseSnapshot{Version: 1, Config: core.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReuse(&v1, storage.Options{}); err == nil || !strings.Contains(err.Error(), "version 1 not supported") {
		t.Errorf("v1-stamped snapshot: err = %v, want the version error", err)
	}
}

func TestSeedBaseBindingGuard(t *testing.T) {
	scn := compileFigure2(t)
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewEvaluator(scn, Options{Worlds: 20, SeedBase: 111, Reuse: reuse})
	if _, err := a.EvaluatePoint(context.Background(), point(5, 16, 32, 36)); err != nil {
		t.Fatal(err)
	}
	// A second evaluator with a different seed base must be rejected: its
	// worlds would not correspond to the stored bases.
	b := NewEvaluator(scn, Options{Worlds: 20, SeedBase: 222, Reuse: reuse})
	_, err = b.EvaluatePoint(context.Background(), point(5, 16, 32, 36))
	if err == nil {
		t.Fatal("mismatched seed base must be rejected")
	}
	if !strings.Contains(err.Error(), "seed base") {
		t.Errorf("error should explain the seed-base conflict: %v", err)
	}
	// Same base keeps working.
	c := NewEvaluator(scn, Options{Worlds: 20, SeedBase: 111, Reuse: reuse})
	if _, err := c.EvaluatePoint(context.Background(), point(6, 16, 32, 36)); err != nil {
		t.Fatal(err)
	}
}

func TestSeedBaseBindingSurvivesSaveLoad(t *testing.T) {
	scn := compileFigure2(t)
	reuse, _ := NewReuse(core.DefaultConfig(), storage.Options{})
	ev := NewEvaluator(scn, Options{Worlds: 20, SeedBase: 111, Reuse: reuse})
	if _, err := ev.EvaluatePoint(context.Background(), point(5, 16, 32, 36)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reuse.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReuse(&buf, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wrong := NewEvaluator(scn, Options{Worlds: 20, SeedBase: 999, Reuse: loaded})
	if _, err := wrong.EvaluatePoint(context.Background(), point(5, 16, 32, 36)); err == nil {
		t.Fatal("loaded state must keep its seed-base binding")
	}
}

func TestSnapshotRestoreStoreOrder(t *testing.T) {
	// The snapshot preserves LRU recency so a restored bounded store evicts
	// the same entries first.
	reuse, _ := NewReuse(core.DefaultConfig(), storage.Options{})
	reuse.store.Put("s", "old", []float64{1})
	reuse.store.Put("s", "new", []float64{2})
	if _, ok := reuse.store.Get("s", "old"); !ok { // touch: old becomes MRU
		t.Fatal("old missing")
	}
	var buf bytes.Buffer
	if err := reuse.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReuse(&buf, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := loaded.store.Snapshot()
	if len(snap) != 2 || snap[0].Key != "old" || snap[1].Key != "new" {
		t.Errorf("restored order = %v", []string{snap[0].Key, snap[1].Key})
	}
}

func TestPersistedMappingCorrectness(t *testing.T) {
	// End to end: state saved in one "process", loaded in another, must
	// produce samples identical to direct simulation.
	scn := compileFigure2(t)
	reuse, _ := NewReuse(core.DefaultConfig(), storage.Options{})
	ev := NewEvaluator(scn, Options{Worlds: 60, Reuse: reuse})
	if _, err := ev.EvaluatePoint(context.Background(), point(5, 20, 40, 36)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reuse.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReuse(&buf, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev2 := NewEvaluator(scn, Options{Worlds: 60, Reuse: loaded})
	got, err := ev2.EvaluatePoint(context.Background(), point(5, 28, 40, 36))
	if err != nil {
		t.Fatal(err)
	}
	direct := NewEvaluator(scn, Options{Worlds: 60})
	want, err := direct.EvaluatePoint(context.Background(), point(5, 28, 40, 36))
	if err != nil {
		t.Fatal(err)
	}
	for col := range want.Columns {
		for i := range want.Columns[col] {
			if got.Columns[col][i] != want.Columns[col][i] {
				t.Fatalf("reloaded mapping differs from direct at %s[%d]", col, i)
			}
		}
	}
}
