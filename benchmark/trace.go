package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into the system. Times are
// nanoseconds since the recorder started; Parent is 0 for a root span.
// Spans of one request share the query ID the client minted for it.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	QueryID string `json:"query_id,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"`
}

// spanLog is one goroutine's spans. Each client goroutine owns one, so
// recording takes no lock; the logs are merged when the run has ended.
type spanLog struct {
	epoch time.Time
	base  int64 // high bits of this log's span IDs
	spans []span
}

// recorder hands out span logs and writes them all out at the end.
type recorder struct {
	epoch time.Time
	logs  []*spanLog
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// log makes the span log for one more goroutine. Call it before the
// goroutine starts.
func (r *recorder) log() *spanLog {
	l := &spanLog{epoch: r.epoch, base: int64(len(r.logs)+1) << 40}
	r.logs = append(r.logs, l)
	return l
}

// records reports whether requests started in slot are to be recorded:
// a traced run (one with a log) records in every second slice.
func (l *spanLog) records(slot int) bool { return l != nil && slot >= 0 && slot%2 == 1 }

// add records a finished span and returns its ID for children to name.
func (l *spanLog) add(name string, parent int64, queryID string, start, end time.Time) int64 {
	id := l.base + int64(len(l.spans)) + 1
	l.spans = append(l.spans, span{
		Name: name, ID: id, Parent: parent, QueryID: queryID,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)),
	})
	return id
}

// selfTimes fills each span's self time: its duration minus the part of
// it its children cover. Children of one parent never overlap here (a
// goroutine's calls are sequential), so the cover is their sum.
func selfTimes(spans []span) {
	covered := make(map[int64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start - covered[spans[i].ID]
	}
}

// write merges the logs in start order and writes them with the self
// time each span name adds up to.
func (r *recorder) write(path string) error {
	var all []span
	for _, l := range r.logs {
		all = append(all, l.spans...)
	}
	selfTimes(all)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	type total struct {
		Count  int   `json:"count"`
		SelfNS int64 `json:"self_ns"`
	}
	totals := make(map[string]*total)
	for _, s := range all {
		t := totals[s.Name]
		if t == nil {
			t = &total{}
			totals[s.Name] = t
		}
		t.Count++
		t.SelfNS += s.Self
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		SelfByName map[string]*total `json:"self_by_name"`
		Spans      []span            `json:"spans"`
	}{totals, all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
