package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"torhs/internal/fault"
)

// Checkpoints extend the store's keying from final reports to
// intermediate per-window state: a CheckpointSet holds the snapshots of
// one (experiment, params, code-version) cache key, each file one
// window index, so a killed study folds forward from the latest valid
// snapshot instead of starting over.
//
// Layout under the store root:
//
//	checkpoints/<keyhash>/win-<n>.ckpt
//
// A file is either a base or a delta. A base holds the whole state
// after window n; a delta holds only what the state grew since the
// window it extends, named in its header. Every file starts with a
// one-line integrity header — the format magic, for a delta the parent
// window, and the SHA-256 of the payload — followed by the gob-encoded
// payload (gob, not JSON, because snapshots carry float64s that must
// round-trip bit-exactly, including non-finite values, and exact
// time.Time instants). Writes are atomic and fsync'd like every store
// write.
//
// Save writes a delta when the state implements Incremental and the
// deltas since the current base still add up to less than the base's
// size; otherwise it writes a fresh base. That fixed rebase rule makes
// base sizes grow geometrically, so the total bytes written over a run
// stay linear in its length. States that are not Incremental (the trawl
// snapshots) form a chain of bases only.
//
// Latest decodes the newest valid base and applies its deltas in
// order. A file that fails its integrity check is quarantined together
// with every later file of its chain, and the set falls back to the
// last valid link — the previous delta, or the previous base when the
// newest base itself is bad. A rebase prunes everything but the new
// base and its predecessor (the fallback); delta saves never touch the
// rest of the directory. A completed run Clears its set, so checkpoints
// never accumulate.

// ckptMagic versions the base checkpoint format; ckptDeltaMagic the
// delta format.
const (
	ckptMagic      = "torhs-ckpt/1"
	ckptDeltaMagic = "torhs-ckpt-delta/1"
)

// Incremental is implemented by checkpoint states that can persist as
// a base plus deltas. Save calls exactly one of the two methods per
// call. The state's save mark must advance only after Save returns nil,
// so a retried Save encodes the same delta again.
type Incremental interface {
	// CheckpointBase returns the whole state, encoded as a base.
	CheckpointBase() any
	// CheckpointDelta returns what the state grew since its last
	// successful Save.
	CheckpointDelta() any
}

// DeltaApplier is implemented by the Latest target of an Incremental
// state: after the base decodes into it, each delta of the chain is
// applied in order. decode gob-decodes the delta into the value it is
// given. An error marks the delta invalid; the set then quarantines it
// and its successors and reloads the chain up to its predecessor.
type DeltaApplier interface {
	ApplyCheckpointDelta(decode func(delta any) error) error
}

// CheckpointSet is the window-indexed snapshot series of one cache key.
// The chain fields describe what this set last wrote or loaded; they
// are reset by Clear and re-derived by Latest. A set belongs to the one
// sweep that checkpoints into it and is not safe for concurrent use.
type CheckpointSet struct {
	s   *Store
	dir string

	base       int   // window of the current base, -1 when none
	baseBytes  int64 // size of the current base file
	tip        int   // newest window of the current chain
	deltaBytes int64 // sum of delta file sizes since the base
}

// Checkpoints returns the checkpoint set for the key. The set's
// directory is created lazily on first Save; a key that never
// checkpoints costs nothing.
func (s *Store) Checkpoints(k Key) (*CheckpointSet, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return &CheckpointSet{s: s, dir: filepath.Join(s.dir, "checkpoints", k.CacheKey()), base: -1}, nil
}

func (c *CheckpointSet) winPath(window int) string {
	return filepath.Join(c.dir, fmt.Sprintf("win-%08d.ckpt", window))
}

// Save snapshots state as the checkpoint after window (0-based; the
// snapshot means "windows 0..window are folded in"): a delta extending
// the current chain when state is Incremental and the chain is still
// shorter than its base, a base otherwise.
func (c *CheckpointSet) Save(window int, state any) error {
	if window < 0 {
		return fmt.Errorf("resultstore: negative checkpoint window %d", window)
	}
	if err := fault.Hit(fault.SiteCheckpoint); err != nil {
		return err
	}
	inc, _ := state.(Incremental)
	if inc != nil && c.base >= 0 && window > c.tip && c.deltaBytes < c.baseBytes {
		n, err := c.write(window, fmt.Sprintf("%s %d", ckptDeltaMagic, c.tip), inc.CheckpointDelta())
		if err != nil {
			return err
		}
		c.tip = window
		c.deltaBytes += n
		return nil
	}
	if inc != nil {
		state = inc.CheckpointBase()
	}
	n, err := c.write(window, ckptMagic, state)
	if err != nil {
		return err
	}
	prev := c.base
	c.base, c.baseBytes, c.tip, c.deltaBytes = window, n, window, 0
	c.prune(prev)
	return nil
}

// write encodes v behind the header prefix and the payload hash, and
// stores it atomically as the file of window. It returns the file size.
func (c *CheckpointSet) write(window int, prefix string, v any) (int64, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return 0, fmt.Errorf("resultstore: encode checkpoint: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	data := make([]byte, 0, len(prefix)+2+2*len(sum)+buf.Len())
	data = append(data, prefix...)
	data = append(data, ' ')
	data = append(data, hex.EncodeToString(sum[:])...)
	data = append(data, '\n')
	data = append(data, buf.Bytes()...)
	if err := writeAtomic(c.winPath(window), data); err != nil {
		return 0, fmt.Errorf("resultstore: write checkpoint %d: %w", window, err)
	}
	return int64(len(data)), nil
}

// Latest finds the newest valid chain, decodes its base into state
// (pass a pointer to a zero value; it is reset before every attempt),
// applies the chain's deltas in order, and returns the window of the
// last one applied. ok is false when no valid snapshot exists. Files
// that fail their integrity check are quarantined with their chain
// successors and the set falls back to the last valid link; transient
// and I/O errors are returned with every file left in place.
func (c *CheckpointSet) Latest(state any) (window int, ok bool, err error) {
	c.base = -1
	applier, _ := state.(DeltaApplier)
reload:
	for {
		base, deltas, err := c.chain()
		if err != nil {
			return 0, false, err
		}
		if base == nil {
			return 0, false, nil
		}
		if len(deltas) > 0 && applier == nil {
			return 0, false, fmt.Errorf("resultstore: checkpoint window %d has deltas but %T cannot apply them", base.win, state)
		}
		if err := resetState(state); err != nil {
			return 0, false, err
		}
		if err := gobDecode(base.payload, state); err != nil {
			if err := c.quarantineFrom(base, deltas, err); err != nil {
				return 0, false, err
			}
			continue
		}
		for i, d := range deltas {
			payload := d.payload
			if err := applier.ApplyCheckpointDelta(func(v any) error { return gobDecode(payload, v) }); err != nil {
				if err := c.quarantineFrom(d, deltas[i+1:], err); err != nil {
					return 0, false, err
				}
				// The state may hold part of the bad delta: reload the
				// chain, which now ends at the last good link.
				continue reload
			}
		}
		c.base, c.baseBytes, c.tip, c.deltaBytes = base.win, base.size, base.win, 0
		for _, d := range deltas {
			c.tip = d.win
			c.deltaBytes += d.size
		}
		return c.tip, true, nil
	}
}

// ckptFile is one verified checkpoint file.
type ckptFile struct {
	win     int
	delta   bool
	parent  int // the window a delta extends
	size    int64
	payload []byte
	bad     error // integrity failure; the other fields are unset
}

// corruptError marks an integrity failure: the file is unusable and is
// quarantined, unlike a transient or I/O error.
type corruptError struct{ msg string }

func (e *corruptError) Error() string { return e.msg }

func corrupt(format string, args ...any) error {
	return &corruptError{msg: fmt.Sprintf(format, args...)}
}

// chain reads the files newest first down to the newest valid base and
// returns it with the run of deltas that extends it link by link. Files
// above the base that break the chain — corrupt, or naming a parent
// that is not the previous link — are quarantined with everything after
// them; so are all files when no valid base exists.
func (c *CheckpointSet) chain() (base *ckptFile, deltas []*ckptFile, err error) {
	wins, err := c.windows()
	if err != nil {
		return nil, nil, err
	}
	var above []*ckptFile // newest first
	for i := len(wins) - 1; i >= 0; i-- {
		f, err := c.read(wins[i])
		if err != nil {
			var ce *corruptError
			if !errors.As(err, &ce) {
				return nil, nil, err
			}
			f = &ckptFile{win: wins[i], bad: err}
		} else if !f.delta {
			base = f
			break
		}
		above = append(above, f)
	}
	for i, j := 0, len(above)-1; i < j; i, j = i+1, j-1 {
		above[i], above[j] = above[j], above[i]
	}
	if base == nil {
		if len(above) > 0 {
			return nil, nil, c.quarantineFrom(above[0], above[1:], fmt.Errorf("no base below window %d", above[0].win))
		}
		return nil, nil, nil
	}
	parent := base.win
	for i, f := range above {
		var reason error
		switch {
		case f.bad != nil:
			reason = f.bad
		case f.parent != parent:
			reason = fmt.Errorf("delta extends window %d, chain ends at %d", f.parent, parent)
		}
		if reason != nil {
			return base, deltas, c.quarantineFrom(f, above[i+1:], reason)
		}
		deltas = append(deltas, f)
		parent = f.win
	}
	return base, deltas, nil
}

// quarantineFrom moves first and every later link of its chain to
// quarantine: a chain cannot skip a link.
func (c *CheckpointSet) quarantineFrom(first *ckptFile, later []*ckptFile, reason error) error {
	if err := c.s.quarantine(c.winPath(first.win), fmt.Sprintf("invalid checkpoint: %v", reason)); err != nil {
		return err
	}
	for _, f := range later {
		msg := fmt.Sprintf("checkpoint chain broken at window %d: %v", first.win, reason)
		if err := c.s.quarantine(c.winPath(f.win), msg); err != nil {
			return err
		}
	}
	return nil
}

// read loads and verifies one file: header magic, parent window for a
// delta, payload hash. Integrity failures are corruptErrors; injected
// faults and I/O errors pass through unwrapped in kind.
func (c *CheckpointSet) read(window int) (*ckptFile, error) {
	if err := fault.Hit(fault.SiteStoreRead); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(c.winPath(window))
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	header, payload, found := bytes.Cut(data, []byte{'\n'})
	if !found {
		return nil, corrupt("missing header")
	}
	fields := strings.Fields(string(header))
	f := &ckptFile{win: window, size: int64(len(data)), payload: payload}
	var wantHex string
	switch {
	case len(fields) == 2 && fields[0] == ckptMagic:
		wantHex = fields[1]
	case len(fields) == 3 && fields[0] == ckptDeltaMagic:
		parent, err := strconv.Atoi(fields[1])
		if err != nil || parent < 0 || parent >= window {
			return nil, corrupt("bad delta parent %q", fields[1])
		}
		f.delta, f.parent, wantHex = true, parent, fields[2]
	default:
		magic := ""
		if len(fields) > 0 {
			magic = fields[0]
		}
		return nil, corrupt("bad magic %q", magic)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != wantHex {
		return nil, corrupt("payload hash mismatch (torn write?)")
	}
	return f, nil
}

// gobDecode decodes payload into v, classifying failure as corruption.
func gobDecode(payload []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return corrupt("decode: %v", err)
	}
	return nil
}

// resetState zeroes the value state points to, so a fallback decode
// never inherits fields from an abandoned attempt (gob leaves fields
// absent from the stream untouched and merges into existing maps).
func resetState(state any) error {
	v := reflect.ValueOf(state)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return fmt.Errorf("resultstore: checkpoint target %T is not a non-nil pointer", state)
	}
	v.Elem().SetZero()
	return nil
}

// Clear removes the whole set — called after the run completes, so
// finished studies leave no checkpoint orphans behind.
func (c *CheckpointSet) Clear() error {
	c.base = -1
	return os.RemoveAll(c.dir)
}

// prune runs after a base save: it keeps only the new base and prev,
// the base it replaces (the fallback if the new one turns out torn).
// Best-effort: a leftover file is ignored by Latest unless it extends
// the live chain, and the next rebase retries its removal.
func (c *CheckpointSet) prune(prev int) {
	wins, err := c.windows()
	if err != nil {
		return
	}
	for _, w := range wins {
		if w != c.base && w != prev {
			os.Remove(c.winPath(w))
		}
	}
}

// windows lists the stored window indexes, ascending. Files that do not
// match the naming scheme (including writer temp files) are ignored.
func (c *CheckpointSet) windows() ([]int, error) {
	ents, err := os.ReadDir(c.dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var wins []int
	for _, e := range ents {
		num, ok := strings.CutPrefix(e.Name(), "win-")
		if !ok {
			continue
		}
		num, ok = strings.CutSuffix(num, ".ckpt")
		if !ok {
			continue
		}
		w, err := strconv.Atoi(num)
		if err != nil || w < 0 {
			continue
		}
		wins = append(wins, w)
	}
	sort.Ints(wins)
	return wins, nil
}
