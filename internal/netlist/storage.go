package netlist

import "hash/maphash"

// Index-based storage underneath the pointer-style API. The module's record
// arrays are slab-allocated (pointers into fixed-capacity chunks stay valid
// for the module's lifetime, and a million-record module costs hundreds of
// allocations instead of millions), every record carries a dense ID handle
// assigned at creation and never reused, and each record kind has a
// pointer-free name index (nameIndex): slots hold a seeded 32-bit name hash
// and an ID, and a probe confirms a hash match against the record's own
// Name, so the index keeps no string and the GC never scans it. Consumers
// keep the `*Net`/`*Inst` view; ID-addressed access (`NetByID`, `InstByID`,
// per-record `ID()`) is the index layer analyses build adjacency and scratch
// tables on.

// NetID is a dense handle for a net within its module: IDs are assigned in
// creation order starting at 0 and are never reused after removal, so a
// []T indexed by NetID is a valid side table across mutations.
type NetID int32

// InstID is the instance counterpart of NetID.
type InstID int32

// Sentinel IDs for "no net" / "no instance".
const (
	NoNet  NetID  = -1
	NoInst InstID = -1
)

// slabSize is the record count per slab chunk. Chunks are never reallocated
// (records are appended only up to the chunk's capacity), which is what keeps
// record pointers stable.
const slabSize = 4096

// slab is a chunked record allocator: alloc returns a stable pointer to a
// zeroed record.
type slab[T any] struct {
	chunks [][]T
}

func (s *slab[T]) alloc() *T {
	if len(s.chunks) == 0 || len(s.chunks[len(s.chunks)-1]) == slabSize {
		s.chunks = append(s.chunks, make([]T, 0, slabSize))
	}
	c := &s.chunks[len(s.chunks)-1]
	*c = append(*c, *new(T))
	return &(*c)[len(*c)-1]
}

// nameIndex maps the names of one record kind to their IDs. It is an
// open-addressed table of power-of-two size: each slot packs a 32-bit
// hash/maphash hash of the name (high half) and ID+1 (low half), and 0 marks
// an empty slot. Collisions probe linearly, the load stays at most one half,
// and a deletion shifts the rest of its probe run back instead of leaving a
// tombstone. Growth re-places slots by their stored hash, so no string is
// hashed twice. The table and its seed are made on the first insert; the
// seed differs per table, so a client that picks names cannot aim them at
// one probe run. Names live only in the records: every probe that meets the
// name's hash confirms it against the record's own Name through match.
type nameIndex struct {
	slots []uint64
	count int
	seed  maphash.Seed
}

// minIndexSlots is a table's size at its first insert.
const minIndexSlots = 16

// hash returns the low 32 bits of name's hash under the table's seed.
func (x *nameIndex) hash(name string) uint32 {
	return uint32(maphash.String(x.seed, name))
}

// find returns the ID that name maps to, with its slot and hash. On a miss
// it returns -1 and the empty slot that ends the name's probe run, which
// insert claims (-1 when the table is not yet made). match(id) reports
// whether the live record id is named name.
func (x *nameIndex) find(name string, match func(id int32) bool) (id int32, pos int, h uint32) {
	if x.slots == nil {
		return -1, -1, 0
	}
	h = x.hash(name)
	mask := len(x.slots) - 1
	for pos = int(h) & mask; ; pos = (pos + 1) & mask {
		s := x.slots[pos]
		if s == 0 {
			return -1, pos, h
		}
		if uint32(s>>32) == h && match(int32(uint32(s))-1) {
			return int32(uint32(s)) - 1, pos, h
		}
	}
}

// insert maps name to id in the slot a missed find returned (pos, h),
// growing the table first if the insert would load it past one half.
func (x *nameIndex) insert(name string, id int32, pos int, h uint32) {
	switch {
	case x.slots == nil:
		x.seed = maphash.MakeSeed()
		x.slots = make([]uint64, minIndexSlots)
		h = x.hash(name)
		pos = x.free(h)
	case 2*(x.count+1) > len(x.slots):
		x.grow()
		pos = x.free(h)
	}
	x.slots[pos] = uint64(h)<<32 | uint64(uint32(id+1))
	x.count++
}

// free returns the first empty slot of hash h's probe run.
func (x *nameIndex) free(h uint32) int {
	mask := len(x.slots) - 1
	pos := int(h) & mask
	for x.slots[pos] != 0 {
		pos = (pos + 1) & mask
	}
	return pos
}

// grow doubles the table, re-placing every slot by its stored hash.
func (x *nameIndex) grow() {
	old := x.slots
	x.slots = make([]uint64, 2*len(old))
	for _, s := range old {
		if s != 0 {
			x.slots[x.free(uint32(s>>32))] = s
		}
	}
}

// remove drops the slot that maps name to id, if there is one, and shifts
// back each later entry of its probe run that may move into the gap.
func (x *nameIndex) remove(name string, id int32) {
	if x.slots == nil {
		return
	}
	h := x.hash(name)
	want := uint64(h)<<32 | uint64(uint32(id+1))
	mask := len(x.slots) - 1
	i := int(h) & mask
	for x.slots[i] != want {
		if x.slots[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the gap at i unless its home slot lies
		// cyclically after i and at or before j.
		home := int(uint32(x.slots[j]>>32)) & mask
		if (j-home)&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = 0
	x.count--
}

// connChunkSize is the PinConn entry count per connection-arena chunk.
const connChunkSize = 8192

// connArena carves per-instance connection lists out of shared chunks.
// AddInst knows the instance's pin count, so each instance gets an
// exact-capacity window and never reallocates; a full module's connectivity
// lives in a few large arrays instead of one slice per instance.
type connArena struct {
	cur []PinConn
}

func (a *connArena) carve(capacity int) []PinConn {
	if capacity > connChunkSize {
		return make([]PinConn, 0, capacity)
	}
	if cap(a.cur)-len(a.cur) < capacity {
		a.cur = make([]PinConn, 0, connChunkSize)
	}
	off := len(a.cur)
	a.cur = a.cur[: off+capacity : cap(a.cur)]
	return a.cur[off : off : off+capacity]
}

// PinConn is one connection of an instance: the (interned) pin name, the
// pin's direction resolved once at Connect time, and the connected net.
// Entries are stored in connection order; the list is the instance-side half
// of the fanin/fanout adjacency (the net-side half is Net.Sinks/Net.Driver).
type PinConn struct {
	Pin string
	Net *Net
	Dir PinDir

	// mark is the validator's epoch stamp: a sink-list entry that resolved
	// to this connection during the current Validate pass. Stealing the
	// struct's padding byte-space keeps Validate allocation-free.
	mark uint32
}

// ID returns the net's dense handle within its module.
func (n *Net) ID() NetID { return n.id }

// ID returns the instance's dense handle within its module.
func (in *Inst) ID() InstID { return in.id }

// Conn returns the net connected to the named pin, or nil.
func (in *Inst) Conn(pin string) *Net {
	for i := range in.conns {
		if in.conns[i].Pin == pin {
			return in.conns[i].Net
		}
	}
	return nil
}

// Conns returns the instance's connections in connection order. The slice is
// a live view of the instance's storage: callers must not modify it, and
// mutators (Connect, Disconnect, RemoveInst) invalidate it.
func (in *Inst) Conns() []PinConn { return in.conns }

// connEntry returns the stored connection record for the pin, or nil.
func (in *Inst) connEntry(pin string) *PinConn {
	for i := range in.conns {
		if in.conns[i].Pin == pin {
			return &in.conns[i]
		}
	}
	return nil
}

// SetConnUnchecked sets or overwrites the pin's connection entry WITHOUT
// updating the net's driver/sink bookkeeping or the module's mutation
// counter. It exists so tests can manufacture the inconsistent states the
// validator must diagnose; flow code must use Connect/Disconnect.
func (in *Inst) SetConnUnchecked(pin string, n *Net) {
	if e := in.connEntry(pin); e != nil {
		e.Net = n
		return
	}
	dir := In
	if in.Cell != nil {
		if pd := in.Cell.Pin(pin); pd != nil {
			dir = pd.Dir
		}
	} else if in.Sub != nil {
		if p := in.Sub.Port(pin); p != nil {
			dir = p.Dir
		}
	}
	in.conns = append(in.conns, PinConn{Pin: pin, Net: n, Dir: dir})
}

// NetByID returns the net with the given handle, or nil if the ID is out of
// range or the net has been removed.
func (m *Module) NetByID(id NetID) *Net {
	if id < 0 || int(id) >= len(m.netsByID) {
		return nil
	}
	return m.netsByID[id]
}

// InstByID returns the instance with the given handle, or nil if the ID is
// out of range or the instance has been removed.
func (m *Module) InstByID(id InstID) *Inst {
	if id < 0 || int(id) >= len(m.instsByID) {
		return nil
	}
	return m.instsByID[id]
}

// containsNet reports whether n is a live record of this module (O(1) via
// the ID index; safe on foreign or hand-built records).
func (m *Module) containsNet(n *Net) bool {
	return n != nil && n.id >= 0 && int(n.id) < len(m.netsByID) && m.netsByID[n.id] == n
}

func (m *Module) containsInst(in *Inst) bool {
	return in != nil && in.id >= 0 && int(in.id) < len(m.instsByID) && m.instsByID[in.id] == in
}

// BeginBulk enters bulk-mutation mode: RemoveInst/RemoveNet mark records
// dead and defer the order-preserving compaction of the Nets/Insts arrays to
// the matching EndBulk, turning k removals from k O(n) splices into one O(n)
// sweep. Calls nest. Between removal and compaction the slices still hold
// the removed records (NetByID/InstByID return nil for them); the name and
// ID indices drop them immediately.
func (m *Module) BeginBulk() { m.bulkDepth++ }

// EndBulk leaves bulk-mutation mode, compacting the record arrays when the
// outermost bulk section closes.
func (m *Module) EndBulk() {
	if m.bulkDepth == 0 {
		panic("netlist: EndBulk without BeginBulk")
	}
	m.bulkDepth--
	if m.bulkDepth == 0 {
		m.compact()
	}
}

// compact removes dead records from the ordered Nets/Insts arrays in one
// order-preserving pass. A no-op when nothing is pending.
func (m *Module) compact() {
	if m.deadNets > 0 {
		w := 0
		for _, n := range m.Nets {
			if !n.dead {
				m.Nets[w] = n
				w++
			}
		}
		clear(m.Nets[w:])
		m.Nets = m.Nets[:w]
		m.deadNets = 0
	}
	if m.deadInsts > 0 {
		w := 0
		for _, in := range m.Insts {
			if !in.dead {
				m.Insts[w] = in
				w++
			}
		}
		clear(m.Insts[w:])
		m.Insts = m.Insts[:w]
		m.deadInsts = 0
	}
}

// validState is the last clean Validate verdict: the modseq it was reached
// at and the option it was reached under.
type validState struct {
	ok            bool   // a clean verdict exists
	seq           uint64 // modseq at the verdict
	allowUndriven bool   // option the verdict was reached under
}

// noteClean records a clean verdict at the current modseq.
func (m *Module) noteClean(opts ValidateOptions) {
	m.valid = validState{ok: true, seq: m.modseq, allowUndriven: opts.AllowUndriven}
}

// scratchState holds the module's reusable validation/hash scratch buffers.
// Modules are single-goroutine during mutation and validation (the same
// contract the ModSeq derivation caches rely on), so one set per module
// keeps the hot paths allocation-free.
type scratchState struct {
	buf   []byte   // line buffer (hash writer)
	refs  []PinRef // sink sort scratch (hash writer, validator port sinks)
	conns []PinConn
}

// sortedCache memoizes the name-sorted net/instance orders on the module's
// mutation counter; ContentHash, SortedNets and the exporters share one
// sort per structural revision.
type sortedCache struct {
	seq   uint64
	valid bool
	nets  []*Net
	insts []*Inst
}
