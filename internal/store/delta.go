package store

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"graphstudy/internal/graph"
)

// The delta log (GDL1) is the streaming-ingest side of the store: an
// append-only file of checksummed edge-mutation batches kept next to the
// immutable GSG2 base object. Each batch is one epoch; a dataset's logical
// state at epoch E is the base object (itself stamped with the epoch it was
// compacted at) plus every logged batch with BaseEpoch < epoch <= E. Compact
// folds the log into a fresh base object and truncates it; because the
// manifest is updated before the log is removed, a crash between the two
// leaves only batches at or below the new BaseEpoch, which the loader skips.
//
// Record layout, all little-endian, preceded by a one-time "GDL1" magic:
//
//	u64 epoch | u32 count | count x (u8 del, u32 src, u32 dst, u32 w) | u32 crc
//
// The CRC32 (IEEE) covers the record from epoch through the last op, so a
// flipped byte anywhere in a batch fails its checksum, mirroring the
// per-section checksum discipline of GSG2 itself.

const (
	deltaMagic = "GDL1"
	deltasDir  = "deltas"
	deltaOpLen = 13 // del u8 + src u32 + dst u32 + w u32

	// maxDeltaOps bounds a single batch. It keeps the decoder's allocation
	// proportional to bytes actually present (the op array is read through
	// io.ReadFull before any graph-sized structure exists) and keeps one
	// HTTP ingest call from smuggling in an unbounded batch.
	maxDeltaOps = 1 << 20
)

// DeltaOp is one edge mutation: an upsert (Del false: insert the edge or
// overwrite its weight) or a delete (Del true; W ignored).
type DeltaOp struct {
	Del bool
	Src uint32
	Dst uint32
	W   uint32
}

// DeltaBatch is one atomically-applied, atomically-visible group of ops.
// Ops apply in order within the batch, so delete-then-readd in a single
// batch lands as the re-added edge.
type DeltaBatch struct {
	Epoch uint64
	Ops   []DeltaOp
}

// ErrEpochCompacted reports a delta range that starts below a dataset's
// BaseEpoch: the requested history has been folded into the base object and
// can no longer be enumerated.
var ErrEpochCompacted = errors.New("store: epoch range predates last compaction")

// deltaPath is the log file for a dataset. Dataset names never contain path
// separators (validName), so the name is safe as a file stem.
func (s *Store) deltaPath(name string) string {
	return filepath.Join(s.dir, deltasDir, name+".gdl")
}

// loadDeltasLocked reads (and caches) the pending batches for name, skipping
// any batch already folded into the base object. Callers hold s.deltaMu.
func (s *Store) loadDeltasLocked(name string, base uint64) ([]DeltaBatch, error) {
	if batches, ok := s.deltas[name]; ok {
		return batches, nil
	}
	var batches []DeltaBatch
	f, err := os.Open(s.deltaPath(name))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// No log yet: zero pending batches.
	case err != nil:
		return nil, fmt.Errorf("store: opening delta log for %q: %w", name, err)
	default:
		all, rerr := ReadDeltaLog(bufio.NewReader(f))
		_ = f.Close()
		if rerr != nil {
			return nil, fmt.Errorf("store: delta log for %q: %w", name, rerr)
		}
		for _, b := range all {
			if b.Epoch <= base {
				continue // folded into the base by a compaction that beat the log truncate
			}
			batches = append(batches, b)
		}
	}
	s.deltas[name] = batches
	return batches, nil
}

// baseEntry resolves name's manifest entry for delta operations.
func (s *Store) baseEntry(name string) (Entry, error) {
	e, ok := s.Lookup(name)
	if !ok {
		return Entry{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// AppendDelta validates and durably appends one batch of edge mutations to
// name's delta log, returning the epoch the batch committed as (BaseEpoch +
// number of pending batches). Endpoint values are capped one below the
// uint32 limit so node counts derived from them cannot overflow.
func (s *Store) AppendDelta(name string, ops []DeltaOp) (uint64, error) {
	e, err := s.baseEntry(name)
	if err != nil {
		return 0, err
	}
	if len(ops) == 0 {
		return 0, errors.New("store: empty delta batch")
	}
	if len(ops) > maxDeltaOps {
		return 0, fmt.Errorf("store: delta batch of %d ops exceeds limit %d", len(ops), maxDeltaOps)
	}
	for i, op := range ops {
		if op.Src == ^uint32(0) || op.Dst == ^uint32(0) {
			return 0, fmt.Errorf("store: delta op %d: endpoint %d/%d out of range", i, op.Src, op.Dst)
		}
	}

	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	batches, err := s.loadDeltasLocked(name, e.BaseEpoch)
	if err != nil {
		return 0, err
	}
	epoch := e.BaseEpoch + uint64(len(batches)) + 1
	batch := DeltaBatch{Epoch: epoch, Ops: append([]DeltaOp(nil), ops...)}

	if err := os.MkdirAll(filepath.Join(s.dir, deltasDir), 0o755); err != nil {
		return 0, fmt.Errorf("store: creating delta dir: %w", err)
	}
	path := s.deltaPath(name)
	_, statErr := os.Stat(path)
	fresh := errors.Is(statErr, os.ErrNotExist)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: opening delta log: %w", err)
	}
	var buf []byte
	if fresh {
		buf = append(buf, deltaMagic...)
	}
	buf = appendDeltaRecord(buf, batch)
	// One Write call per batch: records are either fully present or cut off
	// at the tail, and a truncated tail record fails its length or CRC check
	// on reload rather than corrupting earlier epochs.
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		return 0, fmt.Errorf("store: appending delta batch: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("store: closing delta log: %w", err)
	}
	s.deltas[name] = append(batches, batch)
	return epoch, nil
}

// appendDeltaRecord encodes one batch onto buf.
func appendDeltaRecord(buf []byte, b DeltaBatch) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, b.Epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Ops)))
	for _, op := range b.Ops {
		del := byte(0)
		if op.Del {
			del = 1
		}
		buf = append(buf, del)
		buf = binary.LittleEndian.AppendUint32(buf, op.Src)
		buf = binary.LittleEndian.AppendUint32(buf, op.Dst)
		buf = binary.LittleEndian.AppendUint32(buf, op.W)
	}
	crc := crc32.ChecksumIEEE(buf[start:])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// ReadDeltaLog decodes a GDL1 delta log from untrusted bytes. Every
// structural claim is checked before it is believed: the op count is
// bounded, the op bytes must actually be present (io.ReadFull), the CRC
// must match, epochs must be strictly increasing, flag bytes must be 0/1,
// and endpoints must leave room for a +1 node count. Trailing bytes after
// the last full record are an error, not a silent truncation.
func ReadDeltaLog(r io.Reader) ([]DeltaBatch, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("store: delta log: reading magic: %w", err)
	}
	if string(magic[:]) != deltaMagic {
		return nil, fmt.Errorf("store: delta log: bad magic %q", magic[:])
	}
	var batches []DeltaBatch
	var head [12]byte // epoch + count
	lastEpoch := uint64(0)
	for {
		n, err := io.ReadFull(r, head[:])
		if err == io.EOF && n == 0 {
			return batches, nil
		}
		if err != nil {
			return nil, fmt.Errorf("store: delta log: truncated record header: %w", err)
		}
		epoch := binary.LittleEndian.Uint64(head[0:8])
		count := binary.LittleEndian.Uint32(head[8:12])
		if epoch == 0 {
			return nil, errors.New("store: delta log: epoch 0 is reserved for the base")
		}
		if epoch <= lastEpoch {
			return nil, fmt.Errorf("store: delta log: epoch %d not after %d", epoch, lastEpoch)
		}
		if count == 0 {
			return nil, errors.New("store: delta log: empty batch")
		}
		if count > maxDeltaOps {
			return nil, fmt.Errorf("store: delta log: batch of %d ops exceeds limit %d", count, maxDeltaOps)
		}
		body := make([]byte, int(count)*deltaOpLen+4)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, fmt.Errorf("store: delta log: truncated batch (epoch %d, %d ops): %w", epoch, count, err)
		}
		crcWant := binary.LittleEndian.Uint32(body[len(body)-4:])
		crc := crc32.ChecksumIEEE(head[:])
		crc = crc32.Update(crc, crc32.IEEETable, body[:len(body)-4])
		if crc != crcWant {
			return nil, fmt.Errorf("store: delta log: batch at epoch %d: CRC mismatch", epoch)
		}
		ops := make([]DeltaOp, count)
		for i := range ops {
			rec := body[i*deltaOpLen:]
			switch rec[0] {
			case 0:
				// upsert
			case 1:
				ops[i].Del = true
			default:
				return nil, fmt.Errorf("store: delta log: batch at epoch %d: bad op flag %d", epoch, rec[0])
			}
			ops[i].Src = binary.LittleEndian.Uint32(rec[1:5])
			ops[i].Dst = binary.LittleEndian.Uint32(rec[5:9])
			ops[i].W = binary.LittleEndian.Uint32(rec[9:13])
			if ops[i].Src == ^uint32(0) || ops[i].Dst == ^uint32(0) {
				return nil, fmt.Errorf("store: delta log: batch at epoch %d: endpoint out of range", epoch)
			}
		}
		batches = append(batches, DeltaBatch{Epoch: epoch, Ops: ops})
		lastEpoch = epoch
	}
}

// BaseEpoch returns the epoch folded into name's base object (0 until the
// first compaction).
func (s *Store) BaseEpoch(name string) (uint64, error) {
	e, err := s.baseEntry(name)
	if err != nil {
		return 0, err
	}
	return e.BaseEpoch, nil
}

// Epoch returns name's current top epoch: the base epoch plus every logged
// batch.
func (s *Store) Epoch(name string) (uint64, error) {
	e, err := s.baseEntry(name)
	if err != nil {
		return 0, err
	}
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	batches, err := s.loadDeltasLocked(name, e.BaseEpoch)
	if err != nil {
		return 0, err
	}
	return e.BaseEpoch + uint64(len(batches)), nil
}

// Deltas returns the batches with from < epoch <= to, in epoch order. A
// range reaching below BaseEpoch is ErrEpochCompacted: that history only
// exists folded into the base object.
func (s *Store) Deltas(name string, from, to uint64) ([]DeltaBatch, error) {
	e, err := s.baseEntry(name)
	if err != nil {
		return nil, err
	}
	if from > to {
		return nil, fmt.Errorf("store: %q: inverted epoch range (%d, %d]", name, from, to)
	}
	if from < e.BaseEpoch {
		return nil, fmt.Errorf("%w: %q from epoch %d, base %d", ErrEpochCompacted, name, from, e.BaseEpoch)
	}
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	batches, err := s.loadDeltasLocked(name, e.BaseEpoch)
	if err != nil {
		return nil, err
	}
	var out []DeltaBatch
	for _, b := range batches {
		if b.Epoch > from && b.Epoch <= to {
			out = append(out, b)
		}
	}
	if want := to - from; uint64(len(out)) != want {
		return nil, fmt.Errorf("store: %q has no batches for epochs (%d, %d]", name, from, to)
	}
	return out, nil
}

// MaterializeDeltas applies batches (in order) to base and returns the
// canonical CSR of the result: sorted, deduplicated adjacency with the last
// upsert's weight, bit-for-bit what a fresh import of the net edge set
// produces, so compaction and fresh ingest are indistinguishable on disk.
// It merges each base row with the net delta for that row (netOps), so an
// epoch costs O(E + D log D) for E base edges and D logged ops. The node
// count grows to cover every upsert's endpoints, including upserts a later
// batch deletes again; an unweighted base stays unweighted and drops the op
// weights.
func MaterializeDeltas(base *graph.Graph, batches []DeltaBatch) *graph.Graph {
	net := netOps(batches)
	n := base.NumNodes
	for _, b := range batches {
		for _, op := range b.Ops {
			if !op.Del {
				n = max(n, op.Src+1, op.Dst+1)
			}
		}
	}
	weighted := base.Wt != nil
	capEdges := int(base.NumEdges()) + len(net)
	rowPtr := make([]uint64, n+1)
	colIdx := make([]uint32, 0, capEdges)
	var wt []uint32
	if weighted {
		wt = make([]uint32, 0, capEdges)
	}
	for u := uint32(0); u < n; u++ {
		var cols, ws []uint32
		if u < base.NumNodes {
			lo, hi := base.RowPtr[u], base.RowPtr[u+1]
			cols = base.ColIdx[lo:hi]
			if weighted {
				ws = base.Wt[lo:hi]
			}
			if !strictlyIncreasing(cols) {
				cols, ws = canonicalRow(cols, ws)
			}
		}
		// Base edges before column `to` pass through unchanged.
		k := 0
		copyTo := func(to int) {
			colIdx = append(colIdx, cols[k:to]...)
			if weighted {
				wt = append(wt, ws[k:to]...)
			}
			k = to
		}
		for len(net) > 0 && net[0].Src == u {
			op := net[0]
			net = net[1:]
			j := k
			for j < len(cols) && cols[j] < op.Dst {
				j++
			}
			copyTo(j)
			if k < len(cols) && cols[k] == op.Dst {
				k++ // the op replaces or deletes the base edge
			}
			if !op.Del {
				colIdx = append(colIdx, op.Dst)
				if weighted {
					wt = append(wt, op.W)
				}
			}
		}
		copyTo(len(cols))
		rowPtr[u+1] = uint64(len(colIdx))
	}
	return &graph.Graph{NumNodes: n, RowPtr: rowPtr, ColIdx: colIdx, Wt: wt}
}

// strictlyIncreasing reports whether a row is already canonical: sorted
// with no parallel edges.
func strictlyIncreasing(cols []uint32) bool {
	for i := 1; i < len(cols); i++ {
		if cols[i-1] >= cols[i] {
			return false
		}
	}
	return true
}

// canonicalRow sorts a base row that is unsorted or carries parallel edges
// and keeps the last occurrence of each column in CSR order, the weight an
// edge-set rebuild keeps. The generators and importers emit canonical
// rows, so this runs only for bases built with graph.Builder.Build, which
// keeps parallel edges in insertion order.
func canonicalRow(cols, ws []uint32) (outCols, outWs []uint32) {
	idx := make([]int, len(cols))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cols[idx[a]] < cols[idx[b]] })
	for i, k := range idx {
		if i+1 < len(idx) && cols[idx[i+1]] == cols[k] {
			continue // a later parallel edge wins
		}
		outCols = append(outCols, cols[k])
		if ws != nil {
			outWs = append(outWs, ws[k])
		}
	}
	return outCols, outWs
}

// netOps reduces a batch sequence to the last op on each (src, dst), sorted
// by (src, dst). Ops are sorted by edge and then by log position, so the
// last of each edge's run is the one that wins.
func netOps(batches []DeltaBatch) []DeltaOp {
	type logged struct {
		key uint64 // src<<32 | dst
		pos int    // position in the concatenated log
	}
	var ops []DeltaOp
	for _, b := range batches {
		ops = append(ops, b.Ops...)
	}
	order := make([]logged, len(ops))
	for i, op := range ops {
		order[i] = logged{uint64(op.Src)<<32 | uint64(op.Dst), i}
	}
	slices.SortFunc(order, func(a, b logged) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	var out []DeltaOp
	for i, o := range order {
		if i+1 < len(order) && order[i+1].key == o.key {
			continue
		}
		out = append(out, ops[o.pos])
	}
	return out
}

// Snapshot materializes name at the given epoch: the base object plus every
// batch up to epoch. epoch == BaseEpoch returns the base object's graph
// as-is.
func (s *Store) Snapshot(name string, epoch uint64) (*graph.Graph, error) {
	e, err := s.baseEntry(name)
	if err != nil {
		return nil, err
	}
	if epoch < e.BaseEpoch {
		return nil, fmt.Errorf("%w: %q epoch %d, base %d", ErrEpochCompacted, name, epoch, e.BaseEpoch)
	}
	base, _, err := s.Get(name)
	if err != nil {
		return nil, err
	}
	if epoch == e.BaseEpoch {
		return base, nil
	}
	batches, err := s.Deltas(name, e.BaseEpoch, epoch)
	if err != nil {
		return nil, err
	}
	return MaterializeDeltas(base, batches), nil
}

// Compact folds name's pending delta batches into a fresh base object
// stamped with the top epoch, then truncates the log. The manifest commits
// before the log is removed: a crash in between leaves stale batches at or
// below the new BaseEpoch, which loadDeltasLocked skips. Compacting a
// dataset with no pending batches is a no-op.
func (s *Store) Compact(name string) (Entry, error) {
	e, err := s.baseEntry(name)
	if err != nil {
		return Entry{}, err
	}
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	batches, err := s.loadDeltasLocked(name, e.BaseEpoch)
	if err != nil {
		return Entry{}, err
	}
	if len(batches) == 0 {
		return e, nil
	}
	base, meta, err := s.Get(name)
	if err != nil {
		return Entry{}, err
	}
	g := MaterializeDeltas(base, batches)
	top := e.BaseEpoch + uint64(len(batches))
	ne, err := s.putAtEpochLocked(name, g, meta, top)
	if err != nil {
		return Entry{}, err
	}
	if err := os.Remove(s.deltaPath(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return Entry{}, fmt.Errorf("store: truncating delta log after compaction: %w", err)
	}
	s.deltas[name] = nil
	return ne, nil
}
