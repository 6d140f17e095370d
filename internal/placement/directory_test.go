package placement

import (
	"math/rand"
	"slices"
	"testing"

	"corec/internal/geometry"
	"corec/internal/types"
)

// The directory's cell grid is the repo's one spatial mapping; the TestGrid*
// tests pin its unit behaviour and the property test below its contract.

func testDirectory(n int) *Directory {
	return NewDirectory(NewHash(n), 1, geometry.Box3D(0, 0, 0, 64, 64, 64))
}

func TestGridAffinity(t *testing.T) {
	d := testDirectory(8)
	// Objects of one variable in the same cell register on the same group.
	a := d.Servers("v", geometry.Box3D(0, 0, 0, 8, 8, 8))
	b := d.Servers("v", geometry.Box3D(8, 8, 8, 16, 16, 16))
	if len(a) != 2 || !slices.Equal(a, b) {
		t.Fatalf("same-cell objects on different groups: %v vs %v", a, b)
	}
	// A box inside one cell touches exactly that cell; one straddling a
	// cell boundary in every dimension touches the eight around the corner.
	if cells := d.Cells(geometry.Box3D(17, 17, 17, 31, 31, 31)); len(cells) != 1 {
		t.Fatalf("in-cell box touches cells %v, want one", cells)
	}
	if cells := d.Cells(geometry.Box3D(15, 15, 15, 17, 17, 17)); len(cells) != 8 {
		t.Fatalf("corner box touches cells %v, want eight", cells)
	}
}

func TestGridCoversAllServers(t *testing.T) {
	domain := geometry.Box3D(0, 0, 0, 64, 64, 64)
	d := NewDirectory(NewHash(4), 1, domain)
	if len(d.cells) != dirCells || !geometry.Disjoint(d.cells) || geometry.CoverVolume(d.cells) != domain.Volume() {
		t.Fatalf("%d cells of total volume %d do not tile the domain", len(d.cells), geometry.CoverVolume(d.cells))
	}
	used := make(map[types.ServerID]bool)
	for _, cell := range d.cells {
		used[d.Servers("v", cell)[0]] = true
	}
	if len(used) != 4 {
		t.Fatalf("cell owners use %d of 4 servers", len(used))
	}
}

func TestGridForeignGeometryFallsBack(t *testing.T) {
	d := testDirectory(4)
	// Boxes the tiling cannot place share the variable's overflow cell,
	// whatever their extent: a put and a get of them still agree.
	a := geometry.NewBox([]int64{0}, []int64{8})
	b := geometry.NewBox([]int64{1 << 40, 0}, []int64{1<<40 + 1, 1})
	if cells := d.Cells(a); !slices.Equal(cells, []int{overflowCell}) {
		t.Fatalf("1-D box in a 3-D domain touches cells %v, want the overflow cell", cells)
	}
	if ga, gb := d.Servers("v", a), d.Servers("v", b); len(ga) != 2 || !slices.Equal(ga, gb) {
		t.Fatalf("foreign boxes on different groups: %v vs %v", ga, gb)
	}
}

func TestGridClampsOutOfDomain(t *testing.T) {
	d := testDirectory(4)
	// Fully outside: registers in the boundary cell nearest to it.
	outside := geometry.Box3D(-10, 100, 0, -6, 104, 4)
	corner := geometry.Box3D(0, 63, 0, 1, 64, 1)
	if got, want := d.Cells(outside), d.Cells(corner); len(got) != 1 || !slices.Equal(got, want) {
		t.Fatalf("out-of-domain box touches cells %v, want the corner cell %v", got, want)
	}
	// Partly outside: the cells of the part inside.
	if got, want := d.Cells(geometry.Box3D(-100, 0, 0, 20, 8, 8)), d.Cells(geometry.Box3D(0, 0, 0, 20, 8, 8)); !slices.Equal(got, want) {
		t.Fatalf("partly-outside box touches cells %v, want %v", got, want)
	}
}

func TestGridValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"no placement": func() { NewDirectory(nil, 1, geometry.Box3D(0, 0, 0, 64, 64, 64)) },
		"bad domain":   func() { NewDirectory(NewHash(4), 1, geometry.Box{}) },
		"empty domain": func() { NewDirectory(NewHash(4), 1, geometry.Box3D(0, 0, 0, 64, 0, 64)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			f()
		}()
	}
	d := testDirectory(4)
	for _, box := range []geometry.Box{{}, geometry.Box3D(4, 4, 4, 4, 8, 8), {Lo: []int64{1, 2}, Hi: []int64{3}}} {
		if d.Cells(box) != nil || d.Servers("v", box) != nil {
			t.Errorf("invalid box %v mapped to cells %v, servers %v", box, d.Cells(box), d.Servers("v", box))
		}
	}
}

func TestGridDirectoryShardInRange(t *testing.T) {
	d := testDirectory(6)
	for i := int64(0); i < 50; i++ {
		for _, s := range d.Servers("v", geometry.Box3D(i, 0, 0, i+30, 1, 1)) {
			if s < 0 || int(s) >= 6 {
				t.Fatalf("directory server out of range: %d", s)
			}
		}
	}
}

// randomBox draws a box relative to the domain: cell-aligned, unaligned
// inside, straddling the boundary, fully outside, or degenerate (invalid).
func randomBox(rng *rand.Rand, d *Directory) geometry.Box {
	dims := d.domain.Dims()
	lo, hi := make([]int64, dims), make([]int64, dims)
	kind := rng.Intn(5)
	if kind == 0 {
		return d.cells[rng.Intn(len(d.cells))].Clone()
	}
	for dim := 0; dim < dims; dim++ {
		size := d.domain.Size(dim)
		switch kind {
		case 1: // inside, unaligned
			lo[dim] = d.domain.Lo[dim] + rng.Int63n(size)
			hi[dim] = lo[dim] + 1 + rng.Int63n(d.domain.Hi[dim]-lo[dim])
		case 2: // straddling or beyond the boundary
			lo[dim] = d.domain.Lo[dim] - size + rng.Int63n(3*size)
			hi[dim] = lo[dim] + 1 + rng.Int63n(2*size)
		case 3: // fully outside in this dimension
			lo[dim] = d.domain.Hi[dim] + rng.Int63n(size+1)
			if rng.Intn(2) == 0 {
				lo[dim] = d.domain.Lo[dim] - 1 - size - rng.Int63n(size+1)
			}
			hi[dim] = lo[dim] + 1 + rng.Int63n(size)
		case 4: // degenerate: empty or inverted in this dimension
			lo[dim] = d.domain.Lo[dim] + rng.Int63n(size)
			hi[dim] = lo[dim] - rng.Int63n(2)
		}
	}
	return geometry.Box{Lo: lo, Hi: hi}
}

// TestDirectoryIntersectingBoxesShareACell is the directory's contract: over
// random domains, objects and queries, every object whose box intersects a
// query shares a cell with it, and the servers asked for the query include
// that cell's whole shard group — so put and get agree on clamping and a
// targeted query cannot miss an intersecting record.
func TestDirectoryIntersectingBoxesShareACell(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		dims := 1 + rng.Intn(3)
		lo, hi := make([]int64, dims), make([]int64, dims)
		for dim := range lo {
			lo[dim] = rng.Int63n(200) - 100
			hi[dim] = lo[dim] + 1 + rng.Int63n(300/int64(dims))
		}
		place := NewHash(2 + rng.Intn(31))
		mirrors := 1 + rng.Intn(2)
		d := NewDirectory(place, mirrors, geometry.Box{Lo: lo, Hi: hi})
		for pair := 0; pair < 60; pair++ {
			obj, query := randomBox(rng, d), randomBox(rng, d)
			objCells, queryCells := d.Cells(obj), d.Cells(query)
			for _, box := range []geometry.Box{obj, query} {
				cells := d.Cells(box)
				if !box.Valid() {
					if cells != nil || d.Servers("v", box) != nil {
						t.Fatalf("domain %v: invalid box %v mapped to cells %v", d.domain, box, cells)
					}
					continue
				}
				if len(cells) == 0 {
					t.Fatalf("domain %v: valid box %v touches no cell", d.domain, box)
				}
				for _, c := range cells {
					if c < 0 || c >= len(d.cells) {
						t.Fatalf("domain %v: box %v touches cell %d of %d", d.domain, box, c, len(d.cells))
					}
				}
			}
			if !obj.Valid() || !query.Valid() || !obj.Intersects(query) {
				continue
			}
			shared := -1
			for _, c := range objCells {
				if slices.Contains(queryCells, c) {
					shared = c
					break
				}
			}
			if shared < 0 {
				t.Fatalf("domain %v: object %v (cells %v) intersects query %v (cells %v) but they share no cell",
					d.domain, obj, objCells, query, queryCells)
			}
			asked, holding := d.Servers("v", query), d.Servers("v", obj)
			for _, s := range d.Servers("v", d.cells[shared]) {
				if !slices.Contains(asked, s) || !slices.Contains(holding, s) {
					t.Fatalf("domain %v: server %d of shared cell %d missing from query servers %v or object servers %v",
						d.domain, s, shared, asked, holding)
				}
			}
		}
	}
}

func BenchmarkDirectoryServers(b *testing.B) {
	d := NewDirectory(NewHash(8), 1, geometry.Box3D(0, 0, 0, 128, 64, 32))
	box := geometry.Box3D(120, 56, 28, 128, 60, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(d.Servers("cell", box)) != 2 {
			b.Fatal("one-cell box did not map to one group")
		}
	}
}
