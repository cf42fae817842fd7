package moea

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
)

// This file is the checkpoint subsystem: a versioned, checksummed
// snapshot of an evolutionary run at a generation boundary, sufficient
// to resume the run so that the continuation is bit-identical to the
// uninterrupted run — same front, same evaluation and cache accounting,
// same stdout when driven by the CLIs.
//
// The captured state is exactly what the generation loop reads at its
// top: the population and archive (genomes, objectives and the
// algorithm scratch NSGA-II's tournament consumes), the RNG position
// expressed as a draw count (replayed on resume — math/rand sources
// are not serializable), the exact evaluation count, and the full
// evaluation-cache contents. The cache must travel with the run:
// resuming with an empty cache would turn previously-hit genomes into
// misses and change the reported evaluation count.

// Checkpoint is the resumable state of a run at the top of a
// generation. Instances handed to Params.CheckpointFn alias live engine
// buffers and are only valid for the duration of the callback — encode
// or deep-copy before returning. Instances produced by DecodeCheckpoint
// own their memory.
type Checkpoint struct {
	// Algorithm is "spea2" or "nsga2"; a checkpoint resumes only the
	// algorithm that wrote it.
	Algorithm string
	// Seed, NumBits, Population and Memoized identify the run; resuming
	// under different values is a mismatch, not a continuation.
	Seed       int64
	NumBits    int
	Population int
	Memoized   bool
	// NumObjectives is the objective-vector length of every serialized
	// individual and cache entry. The engine writes it explicitly, so an
	// empty population cannot misreport the run's objective count; when
	// zero, the encoder infers it from the first serialized vector (for
	// hand-built checkpoints).
	NumObjectives int
	// Generation is the loop index the checkpoint was captured at; the
	// resumed run re-enters the loop there.
	Generation int
	// RNGDraws is the number of values drawn from the seeded source so
	// far; resume replays exactly this many draws.
	RNGDraws uint64
	// Evaluations, CacheHits and CacheMisses restore the exact
	// accounting of the interrupted prefix.
	Evaluations            int
	CacheHits, CacheMisses int64
	// DeltaEvals and FullEvals split Evaluations by evaluation path.
	DeltaEvals, FullEvals int
	// Pop and Archive are the live individuals at the loop top (Archive
	// is empty for NSGA-II).
	Pop, Archive []CheckpointIndividual
	// Memo is the evaluation cache contents (empty when Memoized is
	// false).
	Memo []MemoEntry
}

// CheckpointIndividual is one serialized individual: genome, objectives
// and the algorithm scratch (SPEA-2 fitness / NSGA-II rank, and the
// density / crowding distance) that survives across the loop boundary.
type CheckpointIndividual struct {
	Genome           Genome
	Obj              []float64
	Fitness, Density float64
}

// MemoEntry is one serialized evaluation-cache entry.
type MemoEntry struct {
	Genome Genome
	Obj    []float64
}

// ckptMagic identifies the format; the trailing byte is the version.
// Checkpoints are transient run state, so the decoder accepts only the
// current version (4). Its header carries the objective count and the
// delta/full evaluation split; every section after it is fixed-size, so
// the header determines the payload length exactly.
var ckptMagic = [8]byte{'R', 'S', 'N', 'C', 'K', 'P', 'T', ckptVersion}

const ckptVersion = 4

// ckptMaxBits bounds NumBits accepted by the decoder — far above any
// real network, low enough that a hostile count cannot drive huge
// allocations before the size consistency check.
const ckptMaxBits = 1 << 28

// EncodeCheckpoint serializes a checkpoint: magic+version, the header,
// the individuals and cache entries, and a trailing FNV-1a checksum
// over everything before it.
func EncodeCheckpoint(cp *Checkpoint) []byte {
	nwords := (cp.NumBits + 63) / 64
	m := cp.headerObjectives()
	indSize := nwords*8 + m*8 + 16
	size := len(ckptMagic) + 1 + len(cp.Algorithm) + 85 +
		(len(cp.Pop)+len(cp.Archive))*indSize + len(cp.Memo)*(nwords*8+m*8) + 8
	b := make([]byte, 0, size)
	b = append(b, ckptMagic[:]...)
	b = append(b, byte(len(cp.Algorithm)))
	b = append(b, cp.Algorithm...)
	b = le64(b, uint64(cp.Seed))
	b = le32(b, uint32(cp.NumBits))
	b = le32(b, uint32(cp.Population))
	b = le32(b, uint32(m))
	if cp.Memoized {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = le32(b, uint32(cp.Generation))
	b = le64(b, cp.RNGDraws)
	b = le64(b, uint64(cp.Evaluations))
	b = le64(b, uint64(cp.CacheHits))
	b = le64(b, uint64(cp.CacheMisses))
	b = le64(b, uint64(cp.DeltaEvals))
	b = le64(b, uint64(cp.FullEvals))
	b = le32(b, uint32(len(cp.Pop)))
	b = le32(b, uint32(len(cp.Archive)))
	b = le32(b, uint32(len(cp.Memo)))
	for _, in := range cp.Pop {
		b = appendGenome(b, in.Genome, nwords)
		b = appendFloats(b, in.Obj)
		b = le64(b, math.Float64bits(in.Fitness))
		b = le64(b, math.Float64bits(in.Density))
	}
	for _, in := range cp.Archive {
		b = appendGenome(b, in.Genome, nwords)
		b = appendFloats(b, in.Obj)
		b = le64(b, math.Float64bits(in.Fitness))
		b = le64(b, math.Float64bits(in.Density))
	}
	for _, e := range cp.Memo {
		b = appendGenome(b, e.Genome, nwords)
		b = appendFloats(b, e.Obj)
	}
	return le64(b, fnv1a(b))
}

// headerObjectives is the objective count written into the header: the
// explicit field when set, otherwise inferred from the first serialized
// vector.
func (cp *Checkpoint) headerObjectives() int {
	if cp.NumObjectives > 0 {
		return cp.NumObjectives
	}
	return cp.numObjectives()
}

// numObjectives infers the objective count from the first serialized
// vector (populations are never empty in a valid checkpoint; an empty
// one infers m=0, which is exactly the misreport the explicit
// NumObjectives header field exists to prevent).
func (cp *Checkpoint) numObjectives() int {
	for _, set := range [][]CheckpointIndividual{cp.Pop, cp.Archive} {
		if len(set) > 0 {
			return len(set[0].Obj)
		}
	}
	if len(cp.Memo) > 0 {
		return len(cp.Memo[0].Obj)
	}
	return 0
}

// DecodeCheckpoint parses and validates a serialized checkpoint. Any
// structural defect — short input, wrong magic or version, checksum
// mismatch, counts inconsistent with the payload size — returns an
// error wrapping ErrCheckpointCorrupt; no input panics.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic)+8 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCheckpointCorrupt, len(data))
	}
	if [8]byte(data[:8]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic or version", ErrCheckpointCorrupt)
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if fnv1a(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCheckpointCorrupt)
	}
	r := ckptReader{b: body[8:]}
	cp := &Checkpoint{}
	alen := int(r.u8())
	cp.Algorithm = string(r.take(alen))
	cp.Seed = int64(r.u64())
	cp.NumBits = int(r.u32())
	cp.Population = int(r.u32())
	m := int(r.u32())
	cp.NumObjectives = m
	cp.Memoized = r.u8() != 0
	cp.Generation = int(r.u32())
	cp.RNGDraws = r.u64()
	cp.Evaluations = int(r.u64())
	cp.CacheHits = int64(r.u64())
	cp.CacheMisses = int64(r.u64())
	cp.DeltaEvals = int(r.u64())
	cp.FullEvals = int(r.u64())
	npop := int(r.u32())
	narch := int(r.u32())
	nmemo := int(r.u32())
	if r.bad {
		return nil, fmt.Errorf("%w: truncated header", ErrCheckpointCorrupt)
	}
	if cp.NumBits < 0 || cp.NumBits > ckptMaxBits || m < 0 || m > 64 ||
		cp.Generation < 0 || cp.Population < 0 || cp.Evaluations < 0 ||
		cp.DeltaEvals < 0 || cp.FullEvals < 0 {
		return nil, fmt.Errorf("%w: implausible header values", ErrCheckpointCorrupt)
	}
	nwords := (cp.NumBits + 63) / 64
	indSize := uint64(nwords)*8 + uint64(m)*8 + 16
	memoSize := uint64(nwords)*8 + uint64(m)*8
	if memoSize == 0 && nmemo > 0 {
		// Zero-byte entries: the size check below cannot bound the count.
		return nil, fmt.Errorf("%w: %d empty memo entries", ErrCheckpointCorrupt, nmemo)
	}
	want := uint64(npop)*indSize + uint64(narch)*indSize + uint64(nmemo)*memoSize
	if uint64(len(r.b)) != want {
		return nil, fmt.Errorf("%w: payload is %d bytes, header implies %d", ErrCheckpointCorrupt, len(r.b), want)
	}
	readInd := func() CheckpointIndividual {
		var in CheckpointIndividual
		in.Genome = r.genome(nwords)
		in.Obj = r.floats(m)
		in.Fitness = math.Float64frombits(r.u64())
		in.Density = math.Float64frombits(r.u64())
		return in
	}
	cp.Pop = make([]CheckpointIndividual, npop)
	for i := range cp.Pop {
		cp.Pop[i] = readInd()
	}
	cp.Archive = make([]CheckpointIndividual, narch)
	for i := range cp.Archive {
		cp.Archive[i] = readInd()
	}
	cp.Memo = make([]MemoEntry, nmemo)
	for i := range cp.Memo {
		cp.Memo[i] = MemoEntry{Genome: r.genome(nwords), Obj: r.floats(m)}
	}
	return cp, nil
}

// SaveCheckpoint atomically and durably writes the encoded checkpoint:
// the bytes land in a temp file in the target directory, the file is
// fsynced BEFORE the rename, the temp file is renamed over the
// destination, and the parent directory is fsynced after. The ordering
// matters: rename-before-fsync lets a power loss publish an empty (or
// partially written) file under the final name as a "successful"
// checkpoint, because the rename can reach the disk before the data
// does. With the write→fsync→rename→fsync(dir) order, a kill at any
// instant leaves either the previous valid checkpoint or the new valid
// one — never a truncated hybrid.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	data := EncodeCheckpoint(cp)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("moea: checkpoint write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("moea: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("moea: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("moea: checkpoint write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("moea: checkpoint write: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename inside it is
// durable. Filesystems that refuse to fsync directories (some network
// and FUSE mounts) degrade gracefully: the rename itself already
// succeeded, so the checkpoint is valid, just not yet guaranteed on
// stable storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// LoadCheckpoint reads and decodes a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("moea: checkpoint read: %w", err)
	}
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cp, nil
}

// validateResume checks that a checkpoint belongs to the run described
// by the engine's parameters.
func (e *engine) validateResume(algo string, cp *Checkpoint) error {
	switch {
	case cp.Algorithm != algo:
		return fmt.Errorf("%w: checkpoint is a %s run, resuming %s", ErrCheckpointMismatch, cp.Algorithm, algo)
	case cp.Seed != e.par.Seed:
		return fmt.Errorf("%w: checkpoint seed %d, run seed %d", ErrCheckpointMismatch, cp.Seed, e.par.Seed)
	case cp.NumBits != e.nbits:
		return fmt.Errorf("%w: checkpoint genome is %d bits, problem has %d", ErrCheckpointMismatch, cp.NumBits, e.nbits)
	case cp.Population != e.par.Population:
		return fmt.Errorf("%w: checkpoint population %d, run population %d", ErrCheckpointMismatch, cp.Population, e.par.Population)
	case cp.Memoized != e.par.Memoize:
		return fmt.Errorf("%w: checkpoint memoization %v, run %v", ErrCheckpointMismatch, cp.Memoized, e.par.Memoize)
	case cp.Generation >= e.par.Generations:
		return fmt.Errorf("%w: checkpoint generation %d is beyond the %d-generation budget", ErrCheckpointMismatch, cp.Generation, e.par.Generations)
	case len(cp.Pop) == 0:
		return fmt.Errorf("%w: checkpoint has no population", ErrCheckpointMismatch)
	case cp.headerObjectives() != e.m:
		return fmt.Errorf("%w: checkpoint has %d objectives, problem has %d", ErrCheckpointMismatch, cp.headerObjectives(), e.m)
	}
	return nil
}

// countedSource wraps the seeded math/rand source, counting every draw
// so the RNG position can be checkpointed and replayed. It implements
// Source64 by delegation, so rand.Rand consumes it exactly like the
// bare source — same sequences, same determinism guarantees.
type countedSource struct {
	src   rand.Source64
	draws uint64
}

func newCountedSource(seed int64) *countedSource {
	return &countedSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countedSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countedSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countedSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// skip replays n draws. The underlying source advances by exactly one
// internal step per draw regardless of which method was called (Int63
// is Uint64 masked), so replaying by Uint64 restores the exact
// position.
func (s *countedSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.draws = n
}

// fnv1a is the 64-bit FNV-1a hash over a byte slice (the checkpoint
// checksum).
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// le32/le64 append little-endian integers.
func le32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func le64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// appendGenome writes exactly nwords words (genomes of a run share one
// length; a short slice would indicate a caller bug and is padded with
// zero words to keep the format self-consistent).
func appendGenome(b []byte, g Genome, nwords int) []byte {
	for i := 0; i < nwords; i++ {
		var w uint64
		if i < len(g) {
			w = g[i]
		}
		b = le64(b, w)
	}
	return b
}

func appendFloats(b []byte, fs []float64) []byte {
	for _, f := range fs {
		b = le64(b, math.Float64bits(f))
	}
	return b
}

// ckptReader is a bounds-checked little-endian cursor; out-of-range
// reads set bad instead of panicking and return zero values.
type ckptReader struct {
	b   []byte
	bad bool
}

func (r *ckptReader) take(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.bad = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *ckptReader) u8() byte {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (r *ckptReader) u32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (r *ckptReader) u64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (r *ckptReader) genome(nwords int) Genome {
	g := make(Genome, nwords)
	for i := range g {
		g[i] = r.u64()
	}
	return g
}

func (r *ckptReader) floats(m int) []float64 {
	fs := make([]float64, m)
	for i := range fs {
		fs[i] = math.Float64frombits(r.u64())
	}
	return fs
}
