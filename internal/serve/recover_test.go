package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/wal"
)

// copyTree copies a data dir (one level of session directories holding
// flat segment files) so every boot recovers its own pristine image:
// recovery repairs torn tails in place.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	dirs, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		files, err := os.ReadDir(filepath.Join(src, d.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dst, d.Name()), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(src, d.Name(), f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, d.Name(), f.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// bootImage is everything a boot over one data dir makes observable.
type bootImage struct {
	stats  Stats
	order  []string
	nextID string
	bodies map[string][]byte // session ID -> latest order body, then /emitted
	finals map[string][]byte // live session ID -> order body after Finish
}

// orderBody is the snapshot's /order body without its wall-clock latency.
func orderBody(t *testing.T, id string, snap *Snapshot) []byte {
	t.Helper()
	if snap == nil {
		return nil
	}
	resp := orderResponse(id, snap)
	resp.SnapshotMs = 0
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoverAllDeterministic: boot recovery runs each session's log
// scan, restore and replay as one scheduler task, then registers the
// survivors in name order. One data dir — checkpointed live sessions,
// finished ones, a torn tail, a directory with no header and a header
// that no longer builds an engine — booted on 1, 2 and 4 workers must
// give identical counters, registry order, next session ID, snapshots
// and emitted streams, and the registry must be in name order.
func TestRecoverAllDeterministic(t *testing.T) {
	cs := lifecycleCrashScene(t)
	opts := Options{
		Config:          cs.cfg,
		Fsync:           wal.SyncNever,
		PublishEvery:    len(cs.reads) / 7,
		CheckpointEvery: len(cs.reads) / 4,
		FinalizeAfter:   2.0,
		FinalizeMargin:  1.0,
		DataDir:         t.TempDir(),
	}
	srv := newTestServer(t, opts)
	batches := chunkReads(cs.reads, 10)
	// The first session is the slowest to recover (a finished session's
	// final snapshot over the whole belt), so registering in completion
	// order would move it.
	kinds := []string{"finished", "live", "torn", "finished", "live"}
	for i, kind := range kinds {
		sess, err := srv.CreateSession(cs.header)
		if err != nil {
			t.Fatal(err)
		}
		n := len(batches)
		if kind != "finished" {
			n = 5 + i
		}
		for _, b := range batches[:n] {
			if err := sess.Enqueue(b); err != nil {
				t.Fatal(err)
			}
		}
		waitDrained(t, sess)
		if kind == "finished" {
			if _, err := sess.Finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if srv.Metrics().CheckpointsWritten.Load() == 0 || srv.Metrics().TagsFinalized.Load() == 0 {
		t.Fatal("the image holds no checkpoints or no emitted tags")
	}
	// Crash: srv is abandoned. Damage the image three ways.
	segs, err := wal.SegmentFiles(filepath.Join(opts.DataDir, "s000003"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{2, 0xff, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	noHeader := filepath.Join(opts.DataDir, "s000006")
	if err := os.MkdirAll(noHeader, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(noHeader, "wal-00000001.seg"), []byte{0xff, 0xee}, 0o644); err != nil {
		t.Fatal(err)
	}
	inverted := trace.Header{Readers: []trace.ReaderMeta{{ID: 1, XMin: 2, XMax: 1}}}
	bad, err := wal.Create(filepath.Join(opts.DataDir, "s000007"), inverted, wal.Options{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	bad.Close()

	wantOrder := []string{"s000001", "s000002", "s000003", "s000004", "s000005"}
	var ref *bootImage
	for _, workers := range []int{1, 2, 4} {
		sc := sched.New(workers)
		t.Cleanup(sc.Stop)
		bopts := opts
		bopts.Scheduler = sc
		bopts.DataDir = t.TempDir()
		copyTree(t, opts.DataDir, bopts.DataDir)
		booted := newTestServer(t, bopts)

		img := &bootImage{stats: booted.Stats(), bodies: map[string][]byte{}, finals: map[string][]byte{}}
		img.stats.UptimeSeconds, img.stats.ReadsPerSecond, img.stats.AvgSnapshotMs = 0, 0, 0
		booted.mu.Lock()
		img.order = slices.Clone(booted.order)
		booted.mu.Unlock()
		h := booted.Handler()
		for _, id := range img.order {
			sess, _ := booted.Session(id)
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id+"/emitted?limit=4096", nil))
			if rr.Code != http.StatusOK {
				t.Fatalf("workers=%d: %s /emitted: %d %s", workers, id, rr.Code, rr.Body)
			}
			img.bodies[id] = append(orderBody(t, id, sess.Latest()), rr.Body.Bytes()...)
			if !sess.finished() {
				snap, err := sess.Finish()
				if err != nil {
					t.Fatalf("workers=%d: finish %s: %v", workers, id, err)
				}
				img.finals[id] = orderBody(t, id, snap)
			}
		}
		next, err := booted.CreateSession(cs.header)
		if err != nil {
			t.Fatal(err)
		}
		img.nextID = next.ID

		if !slices.Equal(img.order, wantOrder) {
			t.Errorf("workers=%d: registry order %v, want %v", workers, img.order, wantOrder)
		}
		if img.nextID != "s000008" {
			t.Errorf("workers=%d: next session ID %s, want s000008", workers, img.nextID)
		}
		if st := img.stats; st.SessionsRecovered != 5 || st.WALSkipped != 2 || st.WALTornTails != 1 {
			t.Errorf("workers=%d: recovered %d, skipped %d, torn %d; want 5, 2, 1",
				workers, st.SessionsRecovered, st.WALSkipped, st.WALTornTails)
		}
		if ref == nil {
			ref = img
			continue
		}
		if img.stats != ref.stats {
			t.Errorf("workers=%d: stats differ from workers=1:\n  got  %+v\n  want %+v", workers, img.stats, ref.stats)
		}
		for id, want := range ref.bodies {
			if !bytes.Equal(img.bodies[id], want) {
				t.Errorf("workers=%d: %s latest snapshot or /emitted differs from workers=1", workers, id)
			}
		}
		for id, want := range ref.finals {
			if !bytes.Equal(img.finals[id], want) {
				t.Errorf("workers=%d: %s final snapshot differs from workers=1", workers, id)
			}
		}
	}
}
