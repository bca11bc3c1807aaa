package mc

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/storage"
)

// TestSnapshotDuringConcurrentEvaluation drives evaluators over a shared
// reuse engine while snapshots are taken in parallel — the server's
// periodic-persistence pattern. Run under -race (the CI test job does),
// this covers the store/index consistency the Save lock now guarantees;
// every snapshot taken mid-flight must also load cleanly.
func TestSnapshotDuringConcurrentEvaluation(t *testing.T) {
	scn := compileFigure2(t)
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}

	const evaluators = 4
	const rounds = 6
	var wg sync.WaitGroup
	for g := 0; g < evaluators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine gets its own Evaluator (the worlds table is
			// evaluator-local); only the reuse engine is shared.
			ev := NewEvaluator(scn, Options{Worlds: 64, Reuse: reuse})
			for i := 0; i < rounds; i++ {
				pt := point(int64(i*4), int64(8*(g%3)), 32, 36)
				if _, err := ev.EvaluatePoint(context.Background(), pt); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	path := filepath.Join(t.TempDir(), "reuse.snap")
	for i := 0; i < 8; i++ {
		if err := reuse.SaveSnapshot(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSnapshot(path, storage.Options{})
		if err != nil {
			t.Fatalf("snapshot %d did not load: %v", i, err)
		}
		// Every index entry in a consistent snapshot must have its basis
		// present in the store — the torn state the Save lock prevents.
		held := storedKeys(loaded.store)
		for _, ie := range loaded.index.Export() {
			if !held[storage.KeyRef{Site: ie.Label, Key: ie.Key}] {
				t.Fatalf("snapshot %d: index entry %s%s has no stored basis", i, ie.Label, ie.Key)
			}
		}
	}
	wg.Wait()

	// One final snapshot of the settled state must round-trip too.
	if err := reuse.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path, storage.Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestSaveSnapshotAtomicRename: a failed write never clobbers an existing
// snapshot, and the temp file is cleaned up.
func TestSaveSnapshotAtomicRename(t *testing.T) {
	scn := compileFigure2(t)
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(scn, Options{Worlds: 32, Reuse: reuse})
	if _, err := ev.EvaluatePoint(context.Background(), point(0, 0, 0, 12)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "reuse.snap")
	if err := reuse.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "reuse.snap" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("snapshot dir = %v, want exactly [reuse.snap]", names)
	}
	if _, err := LoadSnapshot(filepath.Join(dir, "missing.snap"), storage.Options{}); err == nil {
		t.Error("loading a missing snapshot should error")
	}
	// Truncated snapshots are rejected, not silently accepted.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.snap")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(trunc, storage.Options{}); err == nil || err == io.EOF {
		t.Errorf("truncated snapshot should produce a wrapped error, got %v", err)
	}
}
