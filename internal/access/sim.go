// Package access is a register-level simulator for Reconfigurable Scan
// Networks: it resolves active scan paths from the multiplexer control
// state, executes Capture-Shift-Update (CSU) cycles, retargets accesses
// to embedded instruments, and injects permanent faults.
//
// The simulator serves three purposes in this reproduction:
//
//   - it validates the paper's criticality analysis end-to-end: the
//     analytical accessibility verdicts (internal/faults.Effect) are
//     cross-checked against actual fault-injected CSU simulation;
//   - it demonstrates the paper's compatibility claim: a hardened RSN
//     keeps its topology, so the exact pattern traces recorded on the
//     original network replay identically on the hardened one;
//   - it powers the post-silicon-validation and runtime examples.
//
// Faulty data is modeled with a three-valued domain {0, 1, X}: bits
// passing through a broken segment become X. Two planes are tracked per
// register: the value plane (realistic, taint-carrying) and the intent
// plane (what the data would be in the fault-free network). Under
// PolicyPaper — the semantics of the paper's structural analysis —
// multiplexer select values are read from the intent plane, i.e. control
// writes are not disturbed by unrelated upstream breaks; under
// PolicyStrict they read the value plane, exposing the transitive
// control-coupling effects that a purely structural analysis misses.
// A broken register itself is X in both planes.
package access

import (
	"errors"
	"fmt"

	"rsnrobust/internal/faults"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/telemetry"
)

// Bit is a three-valued logic bit.
type Bit uint8

// Bit values: logic 0, logic 1, and unknown/corrupted X.
const (
	B0 Bit = 0
	B1 Bit = 1
	BX Bit = 2
)

// String returns "0", "1" or "X".
func (b Bit) String() string {
	switch b {
	case B0:
		return "0"
	case B1:
		return "1"
	default:
		return "X"
	}
}

// Bits converts a 0/1 uint64 pattern into a Bit slice of the given
// width, least significant bit first.
func Bits(pattern uint64, width int) []Bit {
	out := make([]Bit, width)
	for i := 0; i < width; i++ {
		if pattern&(1<<uint(i)) != 0 {
			out[i] = B1
		}
	}
	return out
}

// Policy selects how multiplexer control values react to taint.
type Policy uint8

// Policies. PolicyPaper matches the paper's structural fault model;
// PolicyStrict propagates taint into control decisions.
const (
	PolicyPaper Policy = iota
	PolicyStrict
)

// ErrHardened is returned when injecting a fault into a hardened
// primitive: hardening avoids the fault.
var ErrHardened = errors.New("access: primitive is hardened, fault avoided")

// ErrConflict is returned when two retargeting goals require different
// ports of the same multiplexer in a single configuration.
var ErrConflict = errors.New("access: conflicting branch requirements")

// ErrInaccessible is returned when a target cannot be brought onto the
// active scan path (for example because of an injected fault).
var ErrInaccessible = errors.New("access: target not reachable on any active scan path")

// ErrCorrupted is returned when payload data was corrupted by a fault.
var ErrCorrupted = errors.New("access: payload corrupted by a fault")

// Simulator is the register-level RSN simulator. Create one with New;
// the zero value is not usable.
type Simulator struct {
	net    *rsn.Network
	policy Policy

	shiftVal [][]Bit // per segment, index 0 = closest to scan-in
	shiftInt [][]Bit
	updVal   [][]Bit
	updInt   [][]Bit
	capture  [][]Bit // instrument capture data (nil = all zero)

	extSel []int // external select per mux (0 default)
	flts   []faults.Fault

	path      []rsn.NodeID // cached active path, nil when dirty
	pathSegs  []rsn.NodeID
	pathBits  int
	trace     *Trace
	shiftOuts []Bit // scratch
	stats     Stats

	// Telemetry counters, resolved once by SetTelemetry so the shift
	// loop pays a nil check instead of a map lookup per clock. All are
	// nil (no-op) by default.
	telShift, telCapture, telUpdate, telExternal *telemetry.Counter
}

// Stats accumulates the access cost of a simulator session: the tester
// clock cycles spent shifting, the number of Capture-Shift-Update
// cycles, and the external/TAP configuration writes. Retargeting
// overhead — extra CSU rounds to open paths, longer paths through
// redundant structures — shows up directly here.
type Stats struct {
	// ShiftClocks counts scan clock cycles (one per shifted bit).
	ShiftClocks int64
	// Captures and Updates count the respective operations.
	Captures, Updates int
	// ExternalWrites counts SetExternal configuration accesses.
	ExternalWrites int
}

// New creates a simulator for a validated network with all registers
// zeroed and every multiplexer deasserted (port 0).
func New(net *rsn.Network, policy Policy) *Simulator {
	s := &Simulator{
		net:      net,
		policy:   policy,
		shiftVal: make([][]Bit, net.NumNodes()),
		shiftInt: make([][]Bit, net.NumNodes()),
		updVal:   make([][]Bit, net.NumNodes()),
		updInt:   make([][]Bit, net.NumNodes()),
		capture:  make([][]Bit, net.NumNodes()),
		extSel:   make([]int, net.NumNodes()),
	}
	net.Nodes(func(nd *rsn.Node) {
		if nd.Kind == rsn.KindSegment {
			s.shiftVal[nd.ID] = make([]Bit, nd.Length)
			s.shiftInt[nd.ID] = make([]Bit, nd.Length)
			s.updVal[nd.ID] = make([]Bit, nd.Length)
			s.updInt[nd.ID] = make([]Bit, nd.Length)
		}
	})
	return s
}

// Network returns the simulated network.
func (s *Simulator) Network() *rsn.Network { return s.net }

// SetTelemetry streams the simulator's operation counts into the
// collector: sim.shift_clocks, sim.captures, sim.updates and
// sim.external_writes. A nil collector detaches telemetry (the
// default).
func (s *Simulator) SetTelemetry(c *telemetry.Collector) {
	if c == nil {
		s.telShift, s.telCapture, s.telUpdate, s.telExternal = nil, nil, nil, nil
		return
	}
	s.telShift = c.Counter("sim.shift_clocks")
	s.telCapture = c.Counter("sim.captures")
	s.telUpdate = c.Counter("sim.updates")
	s.telExternal = c.Counter("sim.external_writes")
}

// InjectFault injects a permanent fault; several may accumulate for
// multi-fault studies. Hardened primitives reject the injection with
// ErrHardened: that is the whole point of selective hardening.
func (s *Simulator) InjectFault(f faults.Fault) error {
	if s.net.Node(f.Node).Hardened {
		return fmt.Errorf("%w: %s", ErrHardened, f.String(s.net))
	}
	s.flts = append(s.flts, f)
	s.dirty()
	return nil
}

// Fault returns the first injected fault, or nil. Use Faults for the
// complete list.
func (s *Simulator) Fault() *faults.Fault {
	if len(s.flts) == 0 {
		return nil
	}
	return &s.flts[0]
}

// Faults returns all injected faults.
func (s *Simulator) Faults() []faults.Fault { return s.flts }

// SetExternal drives the select value of an externally controlled
// multiplexer (a robust TAP controller in the paper's model).
func (s *Simulator) SetExternal(mux rsn.NodeID, port int) {
	s.extSel[mux] = port
	s.stats.ExternalWrites++
	s.telExternal.Inc()
	s.dirty()
	if s.trace != nil {
		s.trace.Ops = append(s.trace.Ops, TraceOp{Kind: OpExternal, Mux: mux, Port: port})
	}
}

// SetCapture installs the data an instrument presents at its segment's
// capture stage.
func (s *Simulator) SetCapture(seg rsn.NodeID, data []Bit) error {
	nd := s.net.Node(seg)
	if nd.Kind != rsn.KindSegment {
		return fmt.Errorf("access: %q is not a segment", nd.Name)
	}
	if len(data) != nd.Length {
		return fmt.Errorf("access: capture data for %q has %d bits, segment has %d", nd.Name, len(data), nd.Length)
	}
	s.capture[seg] = append([]Bit(nil), data...)
	return nil
}

// Stats returns the accumulated access-cost counters.
func (s *Simulator) Stats() Stats { return s.stats }

// ResetStats zeroes the access-cost counters.
func (s *Simulator) ResetStats() { s.stats = Stats{} }

// UpdateValue returns the update-register contents (value plane) of a
// segment.
func (s *Simulator) UpdateValue(seg rsn.NodeID) []Bit {
	return append([]Bit(nil), s.updVal[seg]...)
}

func (s *Simulator) dirty() { s.path = nil }

func (s *Simulator) broken(seg rsn.NodeID) bool {
	for _, f := range s.flts {
		if f.Kind == faults.SegmentBreak && f.Node == seg {
			return true
		}
	}
	return false
}

// SelectOf resolves the currently selected input port of a multiplexer,
// honoring stuck-at faults, external controls and the taint policy.
// Unknown (X) select values resolve to the deasserted port 0.
func (s *Simulator) SelectOf(mux rsn.NodeID) int {
	for _, f := range s.flts {
		if f.Kind == faults.MuxStuck && f.Node == mux {
			return f.Port
		}
	}
	nd := s.net.Node(mux)
	ports := len(s.net.Pred(mux))
	if nd.Ctrl.Source == rsn.None {
		return s.extSel[mux] % ports
	}
	plane := s.updVal
	if s.policy == PolicyPaper {
		plane = s.updInt
	}
	src := plane[nd.Ctrl.Source]
	val := 0
	for k := 0; k < nd.Ctrl.Width; k++ {
		switch src[nd.Ctrl.Bit+k] {
		case B1:
			val |= 1 << uint(k)
		case BX:
			return 0 // unknown select fails safe to deasserted
		}
	}
	return val % ports
}

// ActivePath returns the node sequence of the currently configured scan
// path from scan-in to scan-out.
func (s *Simulator) ActivePath() []rsn.NodeID {
	if s.path != nil {
		return s.path
	}
	var rev []rsn.NodeID
	v := s.net.ScanOut
	for {
		rev = append(rev, v)
		if v == s.net.ScanIn {
			break
		}
		preds := s.net.Pred(v)
		if s.net.Node(v).Kind == rsn.KindMux {
			v = preds[s.SelectOf(v)]
		} else {
			v = preds[0]
		}
	}
	s.path = make([]rsn.NodeID, len(rev))
	for i, id := range rev {
		s.path[len(rev)-1-i] = id
	}
	s.pathSegs = s.pathSegs[:0]
	s.pathBits = 0
	for _, id := range s.path {
		if s.net.Node(id).Kind == rsn.KindSegment {
			s.pathSegs = append(s.pathSegs, id)
			s.pathBits += s.net.Node(id).Length
		}
	}
	return s.path
}

// PathSegments returns the segments on the active path in scan-in to
// scan-out order.
func (s *Simulator) PathSegments() []rsn.NodeID {
	s.ActivePath()
	return s.pathSegs
}

// PathBits returns the shift length of the active path.
func (s *Simulator) PathBits() int {
	s.ActivePath()
	return s.pathBits
}

// OnPath reports whether a node lies on the active path.
func (s *Simulator) OnPath(id rsn.NodeID) bool {
	for _, v := range s.ActivePath() {
		if v == id {
			return true
		}
	}
	return false
}

// ShiftBit clocks one bit into the path at scan-in and returns the bit
// appearing at scan-out (value plane).
func (s *Simulator) ShiftBit(in Bit) Bit {
	s.stats.ShiftClocks++
	s.telShift.Inc()
	segs := s.PathSegments()
	carryV, carryI := in, in
	for _, seg := range segs {
		rv, ri := s.shiftVal[seg], s.shiftInt[seg]
		n := len(rv)
		outV, outI := rv[n-1], ri[n-1]
		for i := n - 1; i > 0; i-- {
			rv[i] = rv[i-1]
			ri[i] = ri[i-1]
		}
		rv[0], ri[0] = carryV, carryI
		if s.broken(seg) {
			for i := range rv {
				rv[i] = BX
			}
			outV = BX
		}
		carryV, carryI = outV, outI
	}
	return carryV
}

// Shift clocks len(in) bits through the path, returning the bits that
// appeared at scan-out (value plane).
func (s *Simulator) Shift(in []Bit) []Bit {
	out := make([]Bit, len(in))
	for i, b := range in {
		out[i] = s.ShiftBit(b)
	}
	if s.trace != nil {
		s.trace.Ops = append(s.trace.Ops, TraceOp{Kind: OpShift, Data: append([]Bit(nil), in...), Out: append([]Bit(nil), out...)})
	}
	return out
}

// Capture loads, for every segment on the active path, the instrument
// capture data (instrument segments with explicit capture values, see
// SetCapture) or the update-register contents (the loopback default of
// plain test data registers) into the shift register.
func (s *Simulator) Capture() {
	for _, seg := range s.PathSegments() {
		nd := s.net.Node(seg)
		var valSrc, intSrc []Bit
		if nd.Instr != nil && s.capture[seg] != nil {
			valSrc, intSrc = s.capture[seg], s.capture[seg]
		} else {
			valSrc, intSrc = s.updVal[seg], s.updInt[seg]
		}
		for i := 0; i < nd.Length; i++ {
			s.shiftVal[seg][i], s.shiftInt[seg][i] = valSrc[i], intSrc[i]
		}
		if s.broken(seg) {
			for i := range s.shiftVal[seg] {
				s.shiftVal[seg][i] = BX
				s.shiftInt[seg][i] = BX
			}
		}
	}
	if s.trace != nil {
		s.trace.Ops = append(s.trace.Ops, TraceOp{Kind: OpCapture})
	}
	s.stats.Captures++
	s.telCapture.Inc()
}

// Update transfers, for every segment on the active path, the shift
// register into the update register. A broken register produces X in
// both planes: its own storage is defective, so even the intended value
// is unknown.
func (s *Simulator) Update() {
	for _, seg := range s.PathSegments() {
		copy(s.updVal[seg], s.shiftVal[seg])
		copy(s.updInt[seg], s.shiftInt[seg])
		if s.broken(seg) {
			for i := range s.updVal[seg] {
				s.updVal[seg][i] = BX
				s.updInt[seg][i] = BX
			}
		}
	}
	if s.trace != nil {
		s.trace.Ops = append(s.trace.Ops, TraceOp{Kind: OpUpdate})
	}
	s.stats.Updates++
	s.telUpdate.Inc()
	s.dirty()
}

// CSU performs one Capture-Shift-Update cycle with the given input
// vector (whose length must equal PathBits) and returns the shifted-out
// data.
func (s *Simulator) CSU(in []Bit) ([]Bit, error) {
	if len(in) != s.PathBits() {
		return nil, fmt.Errorf("access: CSU vector has %d bits, path has %d", len(in), s.PathBits())
	}
	s.Capture()
	out := s.Shift(in)
	s.Update()
	return out, nil
}

// segOffset returns the bit offset of seg within the active path
// (counting from scan-in), or -1 if the segment is off-path.
func (s *Simulator) segOffset(seg rsn.NodeID) int {
	off := 0
	for _, sid := range s.PathSegments() {
		if sid == seg {
			return off
		}
		off += s.net.Node(sid).Length
	}
	return -1
}

// composeVector builds a shift-in vector that, after PathBits clocks,
// deposits the given per-segment images into their registers and
// preserves the current update contents of every other on-path segment.
// image maps segment IDs to their desired register contents.
func (s *Simulator) composeVector(image map[rsn.NodeID][]Bit) []Bit {
	L := s.PathBits()
	v := make([]Bit, L)
	off := 0
	for _, seg := range s.PathSegments() {
		nd := s.net.Node(seg)
		src, ok := image[seg]
		if !ok {
			src = s.updInt[seg]
			if s.policy == PolicyStrict {
				src = s.updVal[seg]
			}
		}
		for j := 0; j < nd.Length; j++ {
			b := src[j]
			if b == BX {
				b = B0 // cannot shift an unknown; write a defined zero
			}
			// Bit j of this segment rests at global position off+j
			// (0-based from scan-in) after L clocks, which the bit at
			// stream index L-1-(off+j) reaches.
			v[L-1-(off+j)] = b
		}
		off += nd.Length
	}
	return v
}

// extract pulls a segment's bits out of a shifted-out stream of length
// PathBits.
func (s *Simulator) extract(out []Bit, seg rsn.NodeID) []Bit {
	off := s.segOffset(seg)
	if off < 0 {
		return nil
	}
	n := s.net.Node(seg).Length
	L := len(out)
	bits := make([]Bit, n)
	for j := 0; j < n; j++ {
		bits[j] = out[L-1-(off+j)]
	}
	return bits
}
