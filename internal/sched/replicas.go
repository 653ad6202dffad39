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
//
// Beside the landed replicas the table keeps the in-flight ones: files a
// transfer is queued or under way to deliver. Placement counts them as
// held (LocalBytes), so a task follows its input to where it is arriving;
// Holds and Holders report landed replicas only, because only those can
// serve a copy.
type Replicas struct {
	size    map[string]int64
	holders map[string][]int            // file -> holder ids, ascending
	files   map[int]map[string]struct{} // holder -> files
	bytes   map[int]int64               // holder -> sum of held sizes

	inflight map[string][]int            // file -> destinations, ascending
	incoming map[int]map[string]struct{} // destination -> files in flight
}

// NewReplicas returns an empty table.
func NewReplicas() *Replicas {
	return &Replicas{
		size:     make(map[string]int64),
		holders:  make(map[string][]int),
		files:    make(map[int]map[string]struct{}),
		bytes:    make(map[int]int64),
		inflight: make(map[string][]int),
		incoming: make(map[int]map[string]struct{}),
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

// Add records that holder holds file and reports whether that is new. A
// transfer in flight to holder has landed: its entry is promoted.
func (r *Replicas) Add(file string, holder int) bool {
	r.RemoveInflight(file, holder)
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
	r.holders[file] = insert(r.holders[file], holder)
	return true
}

// insert returns ids with id added in order, in a fresh backing array.
func insert(ids []int, id int) []int {
	i := sort.SearchInts(ids, id)
	next := make([]int, len(ids)+1)
	copy(next, ids[:i])
	next[i] = id
	copy(next[i+1:], ids[i:])
	return next
}

// unlist takes id off lists[file] without writing to the old backing
// array, which callers may still be reading, and deletes the entry when
// nothing is left.
func unlist(lists map[string][]int, file string, id int) {
	ids := lists[file]
	if len(ids) == 1 {
		delete(lists, file)
		return
	}
	i := sort.SearchInts(ids, id)
	lists[file] = append(ids[:i:i], ids[i+1:]...)
}

// AddInflight records that a transfer of file to holder is queued or
// under way, and reports whether that is new: false means one already is,
// so the caller must not start a second.
func (r *Replicas) AddInflight(file string, holder int) bool {
	fs := r.incoming[holder]
	if _, ok := fs[file]; ok {
		return false
	}
	if fs == nil {
		fs = make(map[string]struct{})
		r.incoming[holder] = fs
	}
	fs[file] = struct{}{}
	r.inflight[file] = insert(r.inflight[file], holder)
	return true
}

// RemoveInflight drops an in-flight entry (the transfer failed for good,
// or it landed) and reports whether there was one.
func (r *Replicas) RemoveInflight(file string, holder int) bool {
	fs := r.incoming[holder]
	if _, ok := fs[file]; !ok {
		return false
	}
	delete(fs, file)
	if len(fs) == 0 {
		delete(r.incoming, holder)
	}
	unlist(r.inflight, file, holder)
	return true
}

// Receivers lists, in ascending order, the holders a transfer of file is
// in flight to. The slice is never modified after it is returned.
func (r *Replicas) Receivers(file string) []int { return r.inflight[file] }

// Remove drops one replica and reports whether holder held file.
func (r *Replicas) Remove(file string, holder int) bool {
	if _, ok := r.files[holder][file]; !ok {
		return false
	}
	r.release(file, holder)
	unlist(r.holders, file, holder)
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

// DropHolder removes every replica a holder has and every transfer in
// flight to it (the worker left), and returns, in ascending order, the
// files that now have no holder at all.
func (r *Replicas) DropHolder(holder int) []string {
	for f := range r.incoming[holder] {
		unlist(r.inflight, f, holder)
	}
	delete(r.incoming, holder)
	var orphaned []string
	for f := range r.files[holder] {
		unlist(r.holders, f, holder)
		if len(r.holders[f]) == 0 {
			orphaned = append(orphaned, f)
		}
	}
	delete(r.files, holder)
	delete(r.bytes, holder)
	sort.Strings(orphaned)
	return orphaned
}

// Forget removes a file from the table, every replica, in-flight entry
// and its size included, and returns the holders it had.
func (r *Replicas) Forget(file string) []int {
	for _, h := range r.inflight[file] {
		r.RemoveInflight(file, h)
	}
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

// LocalBytes sums the sizes of the given files that holder holds or is
// receiving: the locality fact the placement policy scores. It allocates
// nothing.
func (r *Replicas) LocalBytes(holder int, files []string) int64 {
	fs, in := r.files[holder], r.incoming[holder]
	if len(fs) == 0 && len(in) == 0 {
		return 0
	}
	var local int64
	for _, f := range files {
		if _, ok := fs[f]; ok {
			local += r.size[f]
		} else if _, ok := in[f]; ok {
			local += r.size[f]
		}
	}
	return local
}
