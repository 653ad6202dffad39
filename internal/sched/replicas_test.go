package sched

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestReplicasBasics(t *testing.T) {
	r := NewReplicas()
	r.SetSize("f", 100)
	if r.Size("f") != 100 {
		t.Fatal("size lost")
	}
	r.Add("f", 2)
	r.Add("f", 1)
	if !r.Holds("f", 1) || r.Holds("f", 3) {
		t.Fatal("membership wrong")
	}
	if h := r.Holders("f"); len(h) != 2 || h[0] != 1 || h[1] != 2 {
		t.Fatalf("holders = %v", h)
	}
	if r.Add("f", 1) {
		t.Fatal("second Add of the same replica reported new")
	}
	r.Remove("f", 1)
	if r.Holds("f", 1) || r.Bytes(1) != 0 {
		t.Fatal("remove failed")
	}
	// A size learned after the replica landed re-charges its holder.
	r.SetSize("f", 40)
	if r.Bytes(2) != 40 {
		t.Fatalf("holder bytes = %d after resize, want 40", r.Bytes(2))
	}
}

func TestReplicasDropHolder(t *testing.T) {
	r := NewReplicas()
	r.Add("only", 3)
	r.Add("shared", 3)
	r.Add("shared", 4)
	orphans := r.DropHolder(3)
	if len(orphans) != 1 || orphans[0] != "only" {
		t.Fatalf("orphans = %v", orphans)
	}
	if len(r.Holders("only")) != 0 || len(r.Holders("shared")) != 1 {
		t.Fatal("drop wrong")
	}
}

// TestReplicasModel applies seeded random sequences of add, remove,
// drop-holder, forget, resize and in-flight add and remove, and checks the
// table after every step against naive sets of (file, holder) pairs: one
// landed, one in flight.
func TestReplicasModel(t *testing.T) {
	type pair struct {
		file   string
		holder int
	}
	files := []string{"a", "b", "c", "d", "e"} // ascending
	const holders = 6
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewReplicas()
		model := map[pair]bool{}
		inflight := map[pair]bool{}
		sizes := map[string]int64{}
		for step := 0; step < 300; step++ {
			f := files[rng.Intn(len(files))]
			h := rng.Intn(holders)
			before, receivers := r.Holders(f), r.Receivers(f)
			saved := fmt.Sprint(before, receivers)
			switch op := rng.Intn(13); {
			case op < 4:
				if got, want := r.Add(f, h), !model[pair{f, h}]; got != want {
					t.Fatalf("seed %d step %d: Add(%s, %d) = %v, want %v", seed, step, f, h, got, want)
				}
				model[pair{f, h}] = true
				delete(inflight, pair{f, h}) // the transfer landed
			case op < 6:
				if got, want := r.Remove(f, h), model[pair{f, h}]; got != want {
					t.Fatalf("seed %d step %d: Remove(%s, %d) = %v, want %v", seed, step, f, h, got, want)
				}
				delete(model, pair{f, h})
			case op < 7:
				for p := range inflight {
					if p.holder == h {
						delete(inflight, p)
					}
				}
				var want []string
				for _, g := range files {
					if !model[pair{g, h}] {
						continue
					}
					delete(model, pair{g, h})
					orphan := true
					for p := range model {
						if p.file == g {
							orphan = false
							break
						}
					}
					if orphan {
						want = append(want, g)
					}
				}
				if got := r.DropHolder(h); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: DropHolder(%d) = %v, want %v", seed, step, h, got, want)
				}
			case op < 8:
				r.Forget(f)
				for _, m := range []map[pair]bool{model, inflight} {
					for p := range m {
						if p.file == f {
							delete(m, p)
						}
					}
				}
				delete(sizes, f)
			case op < 10:
				s := int64(rng.Intn(1000))
				r.SetSize(f, s)
				sizes[f] = s
			case op < 12:
				if got, want := r.AddInflight(f, h), !inflight[pair{f, h}]; got != want {
					t.Fatalf("seed %d step %d: AddInflight(%s, %d) = %v, want %v", seed, step, f, h, got, want)
				}
				inflight[pair{f, h}] = true
			default:
				if got, want := r.RemoveInflight(f, h), inflight[pair{f, h}]; got != want {
					t.Fatalf("seed %d step %d: RemoveInflight(%s, %d) = %v, want %v", seed, step, f, h, got, want)
				}
				delete(inflight, pair{f, h})
			}
			if fmt.Sprint(before, receivers) != saved {
				t.Fatalf("seed %d step %d: a returned Holders or Receivers slice changed from %s to %v %v", seed, step, saved, before, receivers)
			}
			for _, g := range files {
				var want, wantIn []int
				for id := 0; id < holders; id++ {
					if model[pair{g, id}] {
						want = append(want, id)
					}
					if inflight[pair{g, id}] {
						wantIn = append(wantIn, id)
					}
				}
				if got := r.Holders(g); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: Holders(%s) = %v, want %v", seed, step, g, got, want)
				}
				if got := r.Receivers(g); fmt.Sprint(got) != fmt.Sprint(wantIn) {
					t.Fatalf("seed %d step %d: Receivers(%s) = %v, want %v", seed, step, g, got, wantIn)
				}
				if r.Size(g) != sizes[g] {
					t.Fatalf("seed %d step %d: Size(%s) = %d, want %d", seed, step, g, r.Size(g), sizes[g])
				}
			}
			for id := 0; id < holders; id++ {
				var want []string
				var bytes, local int64
				for _, g := range files {
					if r.Holds(g, id) != model[pair{g, id}] {
						t.Fatalf("seed %d step %d: Holds(%s, %d) disagrees with the model", seed, step, g, id)
					}
					if model[pair{g, id}] {
						want = append(want, g)
						bytes += sizes[g]
					}
					if model[pair{g, id}] || inflight[pair{g, id}] {
						local += sizes[g]
					}
				}
				if got := r.Files(id); fmt.Sprint(got) != fmt.Sprint(want) || r.Count(id) != len(want) {
					t.Fatalf("seed %d step %d: Files(%d) = %v (count %d), want %v", seed, step, id, got, r.Count(id), want)
				}
				if r.Bytes(id) != bytes || r.LocalBytes(id, files) != local {
					t.Fatalf("seed %d step %d: holder %d bytes = %d, local = %d, want %d and %d",
						seed, step, id, r.Bytes(id), r.LocalBytes(id, files), bytes, local)
				}
			}
		}
	}
}
