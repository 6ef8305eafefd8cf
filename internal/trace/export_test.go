package trace

import "unsafe"

// ColumnSize is one packed column's length, capacity and element size.
type ColumnSize struct {
	Name           string
	Len, Cap, Elem int
}

// ColumnSizes lists every column p retains, the rank table included.
func (p *PackedTrace) ColumnSizes() []ColumnSize {
	return []ColumnSize{
		columnSize("class", p.class), columnSize("flags", p.flags),
		columnSize("dst", p.dst), columnSize("src1", p.src1),
		columnSize("src2", p.src2), columnSize("base", p.base),
		columnSize("fplat", p.fplat), columnSize("pc", p.pc),
		columnSize("addr", p.addr), columnSize("target", p.target),
		columnSize("rank", p.rank),
	}
}

func columnSize[T any](name string, s []T) ColumnSize {
	var z T
	return ColumnSize{name, len(s), cap(s), int(unsafe.Sizeof(z))}
}
