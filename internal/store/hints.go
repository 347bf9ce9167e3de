package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"diffgossip/internal/obs"
)

// HintEntry is one feedback rating inside a hinted-handoff batch: the wire
// fields of a replicated ledger entry, without the local sequence number (a
// hint is addressed to a peer, not applied locally).
type HintEntry struct {
	// OriginSeq is the sequence number the origin node's ledger assigned.
	OriginSeq uint64 `json:"origin_seq"`
	// Rater and Subject are node ids; Value is the direct trust value.
	Rater   int     `json:"rater"`
	Subject int     `json:"subject"`
	Value   float64 `json:"value"`
	// UnixNano is the ingest wall-clock time at the origin (0 when unknown).
	UnixNano int64 `json:"unix_nano,omitempty"`
}

// Hint is one buffered anti-entropy batch owed to a dead peer: the entries
// of origin's stream contiguously extending it past sequence number After,
// to be replayed to Peer when it comes back.
type Hint struct {
	// Peer is the cluster id (transport address) the batch is owed to.
	Peer string `json:"peer"`
	// Origin and After frame the batch exactly like a KindEntries message.
	Origin string `json:"origin,omitempty"`
	After  uint64 `json:"after,omitempty"`
	// Entries is the batch, in strictly ascending OriginSeq order.
	Entries []HintEntry `json:"entries"`
}

// HintLog persists hinted-handoff batches as JSON lines alongside the WAL,
// so hints owed to a dead peer survive a restart of the hinting node. It is
// an append-mostly log: enqueue appends one line, and after replay shrinks
// the queue the caller rewrites the whole file through an atomic rename —
// the same crash contract as the ledger (old file or new file, never torn).
//
// Not safe for concurrent use; the owning cluster node serialises access.
type HintLog struct {
	path string
	f    *os.File
	w    *bufio.Writer

	// mAppends and mRewrites count durable hint-log writes; the owning
	// cluster node's Instrument hook exposes them.
	mAppends  obs.Counter
	mRewrites obs.Counter
}

// InstrumentMetrics returns the hint log's append and rewrite counters for
// registration by the owning component (internal/cluster).
func (hl *HintLog) InstrumentMetrics() (appends, rewrites *obs.Counter) {
	return &hl.mAppends, &hl.mRewrites
}

// OpenHintLog opens (creating if absent) the hint log at path and replays
// every buffered hint in append order. A torn final line — a crash
// mid-append — is cut off; any malformed complete line is real corruption
// and fails hard.
func OpenHintLog(path string) (*HintLog, []Hint, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open hint log: %w", err)
	}
	var (
		out     []Hint
		goodEnd int64
	)
	br := bufio.NewReader(f)
	line := 0
	for {
		b, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			f.Close()
			return nil, nil, fmt.Errorf("store: read hint log: %w", err)
		}
		if len(b) > 0 && b[len(b)-1] == '\n' {
			line++
			// Blank lines are tolerated exactly as Ledger.replay tolerates
			// them: counted as good bytes and skipped, so a stray newline
			// never refuses boot.
			if trimmed := b[:len(b)-1]; len(trimmed) != 0 {
				var h Hint
				if jerr := json.Unmarshal(trimmed, &h); jerr != nil {
					f.Close()
					return nil, nil, fmt.Errorf("store: hint log line %d: %w", line, jerr)
				}
				out = append(out, h)
			}
			goodEnd += int64(len(b))
		}
		if err == io.EOF {
			break
		}
	}
	if err := f.Truncate(goodEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: truncate torn hint tail: %w", err)
	}
	if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: seek hint log: %w", err)
	}
	return &HintLog{path: path, f: f, w: bufio.NewWriter(f)}, out, nil
}

// Append durably adds one hint to the log: the line is flushed to the OS
// before Append returns (fsync waits for Sync or Close — hints are a
// best-effort fast path; the anti-entropy pull remains the correctness
// backstop if the last few lines are lost to a power cut).
func (hl *HintLog) Append(h Hint) error {
	b, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("store: encode hint: %w", err)
	}
	b = append(b, '\n')
	if _, err := hl.w.Write(b); err != nil {
		return fmt.Errorf("store: append hint: %w", err)
	}
	if err := hl.w.Flush(); err != nil {
		return fmt.Errorf("store: flush hint: %w", err)
	}
	hl.mAppends.Inc()
	return nil
}

// Rewrite atomically and durably replaces the whole log with hints (through
// replaceFile) — called after a replay drains part of the queue, so
// delivered batches are not replayed again across a restart. Any failure
// before the rename leaves the old file and the old handle untouched; after
// the rename the temp handle itself becomes the log's handle, so there is
// no reopen step that could fail and leave the log pointing at a closed
// file. A non-nil error after the swap means the replacement succeeded but
// closing the previous handle failed; the log stays usable.
func (hl *HintLog) Rewrite(hints []Hint) error {
	f, err := replaceFile(hl.path, ".hints-*.tmp", func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		for _, h := range hints {
			b, err := json.Marshal(h)
			if err != nil {
				return fmt.Errorf("store: encode hint: %w", err)
			}
			if _, err := bw.Write(append(b, '\n')); err != nil {
				return fmt.Errorf("store: rewrite hint log: %w", err)
			}
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("store: rewrite hint log: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	oldErr := hl.f.Close()
	hl.f = f
	hl.w = bufio.NewWriter(f) // appends continue at the file's end
	hl.mRewrites.Inc()
	if oldErr != nil {
		return fmt.Errorf("store: close previous hint log handle: %w", oldErr)
	}
	return nil
}

// Sync flushes buffered hints and fsyncs the log file.
func (hl *HintLog) Sync() error {
	if err := hl.w.Flush(); err != nil {
		return fmt.Errorf("store: flush hint log: %w", err)
	}
	if err := hl.f.Sync(); err != nil {
		return fmt.Errorf("store: sync hint log: %w", err)
	}
	return nil
}

// Close flushes, fsyncs and closes the log.
func (hl *HintLog) Close() error {
	if err := hl.Sync(); err != nil {
		hl.f.Close()
		return err
	}
	return hl.f.Close()
}
