package nbody

import "upcbh/internal/vec"

// SoA is a structure-of-arrays view of a body set: the hot read-only
// inputs of tree construction and force computation (position, mass,
// load-balancing cost) split into parallel slices so the inner loops
// stream over contiguous memory instead of striding through 104-byte
// Body records. ID maps each SoA slot back to the body it was gathered
// from, so results computed against the view can be scattered to the
// original array-of-structs layout.
//
// The zero value is ready to use; Gather reuses the backing arrays, so a
// long-lived SoA reaches a steady state with no per-step allocations.
type SoA struct {
	Pos  []vec.V3
	Mass []float64
	Cost []float64
	ID   []int32
}

// Len returns the number of bodies in the view.
func (s *SoA) Len() int { return len(s.Pos) }

// Resize sets the view's length to n, reusing capacity when possible and
// preserving existing slots on growth. Newly exposed slots are
// uninitialized (the caller fills every one).
func (s *SoA) Resize(n int) {
	if cap(s.Pos) < n {
		s.realloc(n, max(2*cap(s.Pos), n))
		return
	}
	s.Pos = s.Pos[:n]
	s.Mass = s.Mass[:n]
	s.Cost = s.Cost[:n]
	s.ID = s.ID[:n]
}

// Reserve ensures capacity for n bodies without changing the view's
// length or contents, so a caller that knows its final size up front
// grows the arrays once rather than through repeated Resize doublings.
func (s *SoA) Reserve(n int) {
	if cap(s.Pos) < n {
		s.realloc(s.Len(), n)
	}
}

// realloc moves the view onto fresh arrays of length n and capacity c,
// preserving the first min(n, Len) slots.
func (s *SoA) realloc(n, c int) {
	pos := make([]vec.V3, n, c)
	mass := make([]float64, n, c)
	cost := make([]float64, n, c)
	id := make([]int32, n, c)
	copy(pos, s.Pos)
	copy(mass, s.Mass)
	copy(cost, s.Cost)
	copy(id, s.ID)
	s.Pos, s.Mass, s.Cost, s.ID = pos, mass, cost, id
}

// Gather fills the view from bodies: slot i holds bodies[i] with
// ID[i] = i. Previous contents are discarded; backing arrays are reused.
func (s *SoA) Gather(bodies []Body) {
	s.Resize(len(bodies))
	for i := range bodies {
		b := &bodies[i]
		s.Pos[i] = b.Pos
		s.Mass[i] = b.Mass
		s.Cost[i] = b.Cost
		s.ID[i] = int32(i)
	}
}

// Set fills one slot.
func (s *SoA) Set(i int, pos vec.V3, mass, cost float64, id int32) {
	s.Pos[i] = pos
	s.Mass[i] = mass
	s.Cost[i] = cost
	s.ID[i] = id
}

// Swap exchanges two slots (all component arrays move together).
func (s *SoA) Swap(i, j int) {
	s.Pos[i], s.Pos[j] = s.Pos[j], s.Pos[i]
	s.Mass[i], s.Mass[j] = s.Mass[j], s.Mass[i]
	s.Cost[i], s.Cost[j] = s.Cost[j], s.Cost[i]
	s.ID[i], s.ID[j] = s.ID[j], s.ID[i]
}

// CopySlot copies slot j of src into slot i of s.
func (s *SoA) CopySlot(i int, src *SoA, j int) {
	s.Pos[i] = src.Pos[j]
	s.Mass[i] = src.Mass[j]
	s.Cost[i] = src.Cost[j]
	s.ID[i] = src.ID[j]
}
