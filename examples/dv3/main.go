// DV3 example: the paper's primary application (§II.A) — a search for
// Higgs → bb̄ decays in jet data — run end-to-end on the live TaskVine
// engine, then validated bin-for-bin against a single-threaded local run.
//
// Exercises the paper's TaskVine data path: dataset files on shared storage,
// declared by stat and read in place by every task (no dataset byte crosses
// a socket), real columnar selection kernels inside serverless function
// calls, and hierarchical accumulation whose partial histograms move
// worker to worker by peer transfer. Exits non-zero if the distributed
// histograms differ from the serial run in any bin.
//
//	go run ./examples/dv3 [-workers 4] [-cores 4] [-files 6] [-events 10000]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"hepvine/internal/apps"
	"hepvine/internal/coffea"
	"hepvine/internal/daskvine"
	"hepvine/internal/rootio"
	"hepvine/internal/vine"
)

func main() {
	workers := flag.Int("workers", 4, "number of in-process workers")
	cores := flag.Int("cores", 4, "cores per worker")
	files := flag.Int("files", 6, "dataset files to synthesize")
	events := flag.Int("events", 10000, "events per file")
	flag.Parse()
	if err := run(*workers, *cores, *files, *events); err != nil {
		log.Fatal(err)
	}
}

func run(workers, cores, nFiles, events int) error {
	apps.RegisterProcessors()
	if err := vine.RegisterLibrary(daskvine.NewLibrary(100 * time.Millisecond)); err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "dv3-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Printf("synthesizing %d files x %d events...\n", nFiles, events)
	paths, err := rootio.WriteDataset(dir, rootio.DatasetSpec{
		Name: "JetHT", Files: nFiles, EventsPerFile: events,
		Gen: rootio.GenOptions{Seed: 7, MeanJets: 5},
	})
	if err != nil {
		return err
	}
	infos := make([]coffea.FileInfo, len(paths))
	var totalBytes int64
	for i, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return err
		}
		totalBytes += st.Size()
		infos[i] = coffea.FileInfo{Path: p, NEvents: int64(events)}
	}
	chunks, err := coffea.Partition("JetHT", infos, int64(events)/4)
	if err != nil {
		return err
	}
	graph, root, err := coffea.BuildGraph("dv3", chunks, coffea.GraphOptions{FanIn: 4})
	if err != nil {
		return err
	}
	fmt.Printf("dataset: %.1f MB on disk, %d chunks, %d-task graph (critical path %d)\n",
		float64(totalBytes)/1e6, len(chunks), graph.Len(), graph.CriticalPathLen())

	mgr, err := vine.NewManager(
		vine.WithPeerTransfers(true),
		vine.WithLibrary(daskvine.LibraryName, true),
	)
	if err != nil {
		return err
	}
	defer mgr.Stop()
	for i := 0; i < workers; i++ {
		w, err := vine.NewWorker(mgr.Addr(),
			vine.WithName(fmt.Sprintf("w%d", i)),
			vine.WithCores(cores),
		)
		if err != nil {
			return err
		}
		defer w.Stop()
	}
	if err := mgr.WaitForWorkers(workers, 5*time.Second); err != nil {
		return err
	}
	// Files written moments ago are inside the racy window (DESIGN §5),
	// where a stat cannot stand for their content and DeclareSharedFile
	// hashes them instead. The paper's datasets were staged long before the
	// analysis ran; let these settle the same way.
	for _, p := range paths {
		for {
			cn, err := mgr.DeclareSharedFile(p)
			if err != nil {
				return err
			}
			if strings.HasPrefix(string(cn), "shared:") {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	start := time.Now()
	dist, err := daskvine.Run(mgr, graph, root, daskvine.Options{Timeout: 5 * time.Minute})
	if err != nil {
		return err
	}
	distTime := time.Since(start)

	fmt.Printf("\ndistributed run: %v over %d workers x %d cores\n", distTime.Round(time.Millisecond), workers, cores)
	st := mgr.Stats()
	fmt.Printf("  tasks=%d retries=%d peer transfers=%d (%.1f MB) manager transfers=%d\n",
		st.TasksDone, st.Retries, st.PeerTransfers, float64(st.PeerBytes)/1e6, st.ManagerTransfers)

	// Ground truth: same analysis, serial, in this process.
	start = time.Now()
	local, err := coffea.RunLocal(apps.DV3Processor{}, chunks)
	if err != nil {
		return err
	}
	fmt.Printf("local serial run: %v\n", time.Since(start).Round(time.Millisecond))

	// Validate bin-for-bin.
	for _, name := range local.Names() {
		lh, dh := local.H[name], dist.H[name]
		if dh == nil {
			return fmt.Errorf("distributed result missing %q", name)
		}
		for i := range lh.Counts {
			if math.Abs(lh.Counts[i]-dh.Counts[i]) > 1e-9 {
				return fmt.Errorf("%s bin %d differs: local %v distributed %v", name, i, lh.Counts[i], dh.Counts[i])
			}
		}
	}
	fmt.Println("validation: distributed result identical to local ground truth ✓")

	mjj := dist.H["dijet_mass"]
	fmt.Printf("\ndijet invariant mass (%0.f candidates, weighted):\n\n", mjj.InRangeSum())
	coarse, err := mjj.Rebin(4)
	if err != nil {
		return err
	}
	fmt.Println(coarse.ASCII(50))
	return nil
}
