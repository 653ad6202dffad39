package sched

import "sort"

// Replicas is the replica table (§IV.B: "The manager maintains a mapping
// of the location of each file within the cluster"): which holders (worker
// ids) hold which files, each file's size, and each holder's cached bytes.
// It is the one copy of that mapping for both planes: the live manager
// reaches it through its Scheduler, the simulator owns one directly.
//
// A holder's bytes are the sum of the sizes of the files it holds, kept
// in step on every change, so they cannot drift. Holder lists are
// copy-on-write: a slice returned by Holders is never modified afterwards.
// Like Scheduler, Replicas is not goroutine-safe.
type Replicas struct {
	size    map[string]int64
	holders map[string][]int            // file -> holder ids, ascending
	files   map[int]map[string]struct{} // holder -> files
	bytes   map[int]int64               // holder -> sum of held sizes
}

// NewReplicas returns an empty table.
func NewReplicas() *Replicas {
	return &Replicas{
		size:    make(map[string]int64),
		holders: make(map[string][]int),
		files:   make(map[int]map[string]struct{}),
		bytes:   make(map[int]int64),
	}
}

// SetSize records a file's size and re-charges every current holder.
func (r *Replicas) SetSize(file string, size int64) {
	old := r.size[file]
	r.size[file] = size
	for _, h := range r.holders[file] {
		r.bytes[h] += size - old
	}
}

// Size reports a file's recorded size (0 if unknown).
func (r *Replicas) Size(file string) int64 { return r.size[file] }

// Add records that holder holds file and reports whether that is new.
func (r *Replicas) Add(file string, holder int) bool {
	fs := r.files[holder]
	if _, ok := fs[file]; ok {
		return false
	}
	if fs == nil {
		fs = make(map[string]struct{})
		r.files[holder] = fs
	}
	fs[file] = struct{}{}
	r.bytes[holder] += r.size[file]
	cur := r.holders[file]
	i := sort.SearchInts(cur, holder)
	next := make([]int, len(cur)+1)
	copy(next, cur[:i])
	next[i] = holder
	copy(next[i+1:], cur[i:])
	r.holders[file] = next
	return true
}

// Remove drops one replica and reports whether holder held file.
func (r *Replicas) Remove(file string, holder int) bool {
	if _, ok := r.files[holder][file]; !ok {
		return false
	}
	r.release(file, holder)
	r.unlist(file, holder)
	return true
}

// release takes file off holder's side of the table.
func (r *Replicas) release(file string, holder int) {
	fs := r.files[holder]
	delete(fs, file)
	if len(fs) == 0 {
		delete(r.files, holder)
		delete(r.bytes, holder)
		return
	}
	r.bytes[holder] -= r.size[file]
}

// unlist takes holder off file's holder list without writing to the old
// backing array, which callers may still be reading.
func (r *Replicas) unlist(file string, holder int) {
	cur := r.holders[file]
	if len(cur) == 1 {
		delete(r.holders, file)
		return
	}
	i := sort.SearchInts(cur, holder)
	r.holders[file] = append(cur[:i:i], cur[i+1:]...)
}

// DropHolder removes every replica a holder has (the worker left) and
// returns, in ascending order, the files that now have no holder at all.
func (r *Replicas) DropHolder(holder int) []string {
	var orphaned []string
	for f := range r.files[holder] {
		r.unlist(f, holder)
		if len(r.holders[f]) == 0 {
			orphaned = append(orphaned, f)
		}
	}
	delete(r.files, holder)
	delete(r.bytes, holder)
	sort.Strings(orphaned)
	return orphaned
}

// Forget removes a file from the table, every replica and its size
// included, and returns the holders it had.
func (r *Replicas) Forget(file string) []int {
	hs := r.holders[file]
	for _, h := range hs {
		r.release(file, h)
	}
	delete(r.holders, file)
	delete(r.size, file)
	return hs
}

// Holders lists the holders of file in ascending id order. The slice is
// never modified after it is returned.
func (r *Replicas) Holders(file string) []int { return r.holders[file] }

// Holds reports whether holder holds file.
func (r *Replicas) Holds(file string, holder int) bool {
	_, ok := r.files[holder][file]
	return ok
}

// Files lists the files a holder holds, in ascending order.
func (r *Replicas) Files(holder int) []string {
	out := make([]string, 0, len(r.files[holder]))
	for f := range r.files[holder] {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Count reports how many files a holder holds.
func (r *Replicas) Count(holder int) int { return len(r.files[holder]) }

// Bytes reports the total size of the files a holder holds.
func (r *Replicas) Bytes(holder int) int64 { return r.bytes[holder] }

// LocalBytes sums the sizes of the given files that holder holds: the
// locality fact the placement policy scores. It allocates nothing.
func (r *Replicas) LocalBytes(holder int, files []string) int64 {
	fs := r.files[holder]
	if len(fs) == 0 {
		return 0
	}
	var local int64
	for _, f := range files {
		if _, ok := fs[f]; ok {
			local += r.size[f]
		}
	}
	return local
}
