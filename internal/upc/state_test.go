package upc

import "testing"

// TestCaptureRestoreRuns: run-based capture and restore are inverses,
// runs may span chunk boundaries, slots outside the runs are neither
// captured nor written, and malformed restores fail without touching
// the shard.
func TestCaptureRestoreRuns(t *testing.T) {
	const n = 3000 // three 1024-element chunks, the last partly allocated
	runs := []Run{{5, 10}, {1020, 1030}, {2047, 2049}, {2999, 3000}}
	live := 0
	for _, r := range runs {
		live += int(r.Hi - r.Lo)
	}

	src := NewHeap[int64](testRuntime(2), 1024)
	if err := src.GrowShard(1, n); err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < n; i++ {
		*src.Raw(Ref{Thr: 1, Idx: i}) = int64(i) + 1
	}
	data := src.CaptureRuns(1, runs, []byte("x"))
	if len(data) != 1+live*8 {
		t.Fatalf("captured %d bytes, want %d", len(data), 1+live*8)
	}
	data = data[1:]

	dst := NewHeap[int64](testRuntime(2), 1024)
	if err := dst.GrowShard(1, n); err != nil {
		t.Fatal(err)
	}
	rest, err := dst.RestoreRuns(1, runs, append(data, 0xee))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 || rest[0] != 0xee {
		t.Fatalf("RestoreRuns left %v unconsumed, want the one trailing byte", rest)
	}
	inRun := func(i int32) bool {
		for _, r := range runs {
			if r.Lo <= i && i < r.Hi {
				return true
			}
		}
		return false
	}
	for i := int32(0); i < n; i++ {
		want := int64(0)
		if inRun(i) {
			want = int64(i) + 1
		}
		if got := *dst.Raw(Ref{Thr: 1, Idx: i}); got != want {
			t.Fatalf("slot %d = %d after restore, want %d", i, got, want)
		}
	}

	fresh := NewHeap[int64](testRuntime(2), 1024)
	if err := fresh.GrowShard(1, n); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]struct {
		runs []Run
		data []byte
	}{
		"short data":      {runs, data[:len(data)-1]},
		"run past length": {[]Run{{2990, 3001}}, make([]byte, 11*8)},
		"negative run":    {[]Run{{-1, 2}}, make([]byte, 3*8)},
		"inverted run":    {[]Run{{9, 5}}, nil},
	} {
		if _, err := fresh.RestoreRuns(1, bad.runs, bad.data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for i := int32(0); i < n; i++ {
		if *fresh.Raw(Ref{Thr: 1, Idx: i}) != 0 {
			t.Fatalf("a rejected restore wrote slot %d", i)
		}
	}
}
