package fleet

import "math/bits"

// A shard's slot table maps station IDs to slots. It is open addressing
// with linear probing over int32 cells, each holding slot + 1, or 0 for
// an empty cell. A probe compares the ID against recs[slot].id, so a
// cell costs 4 bytes and the table holds no copy of the ID. The table
// doubles whenever it would pass half full and never shrinks, so it
// holds at least two cells per station and, past its first 16 cells,
// fewer than four per slot.
// Deletion shifts the rest of the probe run back instead of leaving
// tombstones, so every lookup ends at the first empty cell.

// minTableCells is the size of a shard's table at its first arrival.
const minTableCells = 16

// home returns the cell where id's probe run starts. shardOf takes the
// ID's low bits, which every ID in a shard shares, so the table takes
// the top bits of a multiplicative hash of the full ID.
func (sh *shard) home(id StationID) int {
	shift := 64 - bits.TrailingZeros(uint(len(sh.table)))
	return int((uint64(id) * 0x9e3779b97f4a7c15) >> shift)
}

// cellOf returns the table cell that holds id, or -1 when the shard does
// not hold it.
func (sh *shard) cellOf(id StationID) int {
	t := sh.table
	if len(t) == 0 {
		return -1
	}
	mask := len(t) - 1
	for i := sh.home(id); ; i = (i + 1) & mask {
		c := t[i]
		if c == 0 {
			return -1
		}
		if sh.recs[c-1].id == id {
			return i
		}
	}
}

// lookup returns id's slot, or ok=false when the shard does not hold it.
func (sh *shard) lookup(id StationID) (slot int32, ok bool) {
	i := sh.cellOf(id)
	if i < 0 {
		return 0, false
	}
	return sh.table[i] - 1, true
}

// insertSlot enters the live slot, whose record holds an ID the table
// does not, growing the table first if it would pass half full.
func (sh *shard) insertSlot(slot int32) {
	if live := len(sh.recs) - len(sh.free); 2*live > len(sh.table) {
		old := sh.table
		sh.table = make([]int32, max(2*len(old), minTableCells))
		for _, c := range old {
			if c != 0 {
				sh.place(c - 1)
			}
		}
	}
	sh.place(slot)
}

// place stores slot in the first empty cell of its ID's probe run.
func (sh *shard) place(slot int32) {
	mask := len(sh.table) - 1
	i := sh.home(sh.recs[slot].id)
	for sh.table[i] != 0 {
		i = (i + 1) & mask
	}
	sh.table[i] = slot + 1
}

// deleteCell empties table cell i and shifts back every later entry of
// its probe run whose home cell does not lie after i, so no entry is cut
// off from its home by the hole. It reads the IDs of the entries it
// moves, so the departing record may be cleared only afterwards.
func (sh *shard) deleteCell(i int) {
	t := sh.table
	mask := len(t) - 1
	for j := (i + 1) & mask; t[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j], that is, nearer to j than i is.
		if h := sh.home(sh.recs[t[j]-1].id); (j-h)&mask >= (j-i)&mask {
			t[i] = t[j]
			i = j
		}
	}
	t[i] = 0
}
