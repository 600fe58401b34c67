package pll

// PinsScratch reports whether the index holds an update scratch.
func (idx *Index) PinsScratch() bool { return idx.scr != nil }
