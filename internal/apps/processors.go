// Package apps defines the two analysis applications of the paper:
//
//   - DV3 (§II.A): "searches collision events to find particle jets that
//     result from decays of the Higgs boson to two bottom quarks and to two
//     gluons" — a jet-selection + dijet-mass analysis.
//   - RS-TriPhoton (§II.A): "searches collision events [to] find rare
//     signatures of new physics which appear in a three-photon final
//     state" — a photon-selection + tri-photon-mass analysis.
//
// Each exists twice, honestly labelled: a *live* processor with real
// columnar physics kernels (runs on internal/vine via internal/daskvine),
// and a *simulation workload* (sim.go) whose task counts, data volumes and
// cost distributions are calibrated to Table II for cluster-scale
// experiments.
package apps

import (
	"math"

	"hepvine/internal/coffea"
	"hepvine/internal/hist"
)

// DV3Processor is the live DV3 analysis: select b-tagged dijet events and
// histogram the dijet invariant mass alongside control distributions.
type DV3Processor struct{}

// Name implements coffea.Processor.
func (DV3Processor) Name() string { return "dv3" }

// Columns lists the branches the analysis touches — a small subset of the
// file, which is what makes column-selective I/O pay off.
func (DV3Processor) Columns() []string {
	return []string{"MET_pt", "nJet", "Jet_pt", "Jet_eta", "Jet_phi", "Jet_mass", "Jet_btagDeepB", "genWeight"}
}

// dv3 selection thresholds.
const (
	dv3JetPtMin  = 30.0
	dv3JetEtaMax = 2.4
	dv3BTagMin   = 0.5
)

// Process implements the analysis over one chunk.
func (DV3Processor) Process(ev *coffea.NanoEvents) (*coffea.HistSet, error) {
	pt, err := ev.Jagged("Jet_pt")
	if err != nil {
		return nil, err
	}
	eta, err := ev.Jagged("Jet_eta")
	if err != nil {
		return nil, err
	}
	phi, err := ev.Jagged("Jet_phi")
	if err != nil {
		return nil, err
	}
	mass, err := ev.Jagged("Jet_mass")
	if err != nil {
		return nil, err
	}
	btag, err := ev.Jagged("Jet_btagDeepB")
	if err != nil {
		return nil, err
	}
	met, err := ev.Flat("MET_pt")
	if err != nil {
		return nil, err
	}
	weights, err := ev.Flat("genWeight")
	if err != nil {
		return nil, err
	}

	hs := coffea.NewHistSet()
	hDijet := hist.New(hist.Reg(60, 0, 300, "mjj"))
	hMET := hist.New(hist.Reg(100, 0, 200, "met"))
	hJetPt := hist.New(hist.Reg(80, 0, 800, "jet_pt"))
	hNJet := hist.New(hist.Reg(12, 0, 12, "njet_sel"))

	// sel is reused across events: one backing array per chunk.
	type jet struct{ pt, eta, phi, m, b float64 }
	var sel []jet
	off := 0
	for i := 0; i < len(pt.Counts); i++ {
		n := pt.Counts[i]
		w := weights[i]
		hMET.FillW(w, met[i])

		// Select analysis jets.
		sel = sel[:0]
		for j := off; j < off+n; j++ {
			if pt.Values[j] > dv3JetPtMin && math.Abs(eta.Values[j]) < dv3JetEtaMax {
				sel = append(sel, jet{pt.Values[j], eta.Values[j], phi.Values[j], mass.Values[j], btag.Values[j]})
				hJetPt.FillW(w, pt.Values[j])
			}
		}
		off += n
		hNJet.FillW(w, float64(len(sel)))

		// Two leading b-tagged jets → dijet candidate (Higgs → bb̄).
		var b1, b2 *jet
		for k := range sel {
			if sel[k].b < dv3BTagMin {
				continue
			}
			switch {
			case b1 == nil || sel[k].pt > b1.pt:
				b2 = b1
				b1 = &sel[k]
			case b2 == nil || sel[k].pt > b2.pt:
				b2 = &sel[k]
			}
		}
		if b1 != nil && b2 != nil {
			hDijet.FillW(w, invariantMass2(
				b1.pt, b1.eta, b1.phi, b1.m,
				b2.pt, b2.eta, b2.phi, b2.m))
		}
	}

	hs.H["dijet_mass"] = hDijet
	hs.H["met"] = hMET
	hs.H["jet_pt"] = hJetPt
	hs.H["njet_sel"] = hNJet
	return hs, nil
}

// TriPhotonProcessor is the live RS-TriPhoton analysis: select events with
// three tight photons and histogram the tri-photon invariant mass.
type TriPhotonProcessor struct{}

// Name implements coffea.Processor.
func (TriPhotonProcessor) Name() string { return "rs-triphoton" }

// Columns lists the touched branches.
func (TriPhotonProcessor) Columns() []string {
	return []string{"nPhoton", "Photon_pt", "Photon_eta", "Photon_phi", "Photon_isTight", "genWeight"}
}

// triphoton selection thresholds.
const (
	triPhotonPtMin  = 20.0
	triPhotonEtaMax = 2.5
)

// Process implements the analysis over one chunk.
func (TriPhotonProcessor) Process(ev *coffea.NanoEvents) (*coffea.HistSet, error) {
	pt, err := ev.Jagged("Photon_pt")
	if err != nil {
		return nil, err
	}
	eta, err := ev.Jagged("Photon_eta")
	if err != nil {
		return nil, err
	}
	phi, err := ev.Jagged("Photon_phi")
	if err != nil {
		return nil, err
	}
	tight, err := ev.Jagged("Photon_isTight")
	if err != nil {
		return nil, err
	}
	weights, err := ev.Flat("genWeight")
	if err != nil {
		return nil, err
	}

	hs := coffea.NewHistSet()
	hTri := hist.New(hist.Reg(80, 0, 2000, "m3g"))
	hDi := hist.New(hist.Reg(60, 0, 600, "m2g"))
	hPt := hist.New(hist.Reg(60, 0, 600, "photon_pt"))
	hN := hist.New(hist.Reg(6, 0, 6, "nphoton_sel"))

	var sel []pho // reused across events
	off := 0
	for i := 0; i < len(pt.Counts); i++ {
		n := pt.Counts[i]
		w := weights[i]
		sel = sel[:0]
		for j := off; j < off+n; j++ {
			if tight.Values[j] > 0.5 && pt.Values[j] > triPhotonPtMin && math.Abs(eta.Values[j]) < triPhotonEtaMax {
				sel = append(sel, pho{pt.Values[j], eta.Values[j], phi.Values[j]})
				hPt.FillW(w, pt.Values[j])
			}
		}
		off += n
		hN.FillW(w, float64(len(sel)))
		if len(sel) < 3 {
			continue
		}
		// Leading three photons: the heavy resonance X → γ + a(→γγ).
		top3 := leadingThree(sel)
		m3 := invariantMass3(
			top3[0].pt, top3[0].eta, top3[0].phi,
			top3[1].pt, top3[1].eta, top3[1].phi,
			top3[2].pt, top3[2].eta, top3[2].phi)
		hTri.FillW(w, m3)
		// Light-state candidate from the two sub-leading photons.
		hDi.FillW(w, invariantMass2(
			top3[1].pt, top3[1].eta, top3[1].phi, 0,
			top3[2].pt, top3[2].eta, top3[2].phi, 0))
	}

	hs.H["triphoton_mass"] = hTri
	hs.H["diphoton_mass"] = hDi
	hs.H["photon_pt"] = hPt
	hs.H["nphoton_sel"] = hN
	return hs, nil
}

type pho = struct{ pt, eta, phi float64 }

func leadingThree(sel []pho) [3]pho {
	var out [3]pho
	for _, p := range sel {
		switch {
		case p.pt > out[0].pt:
			out[2] = out[1]
			out[1] = out[0]
			out[0] = p
		case p.pt > out[1].pt:
			out[2] = out[1]
			out[1] = p
		case p.pt > out[2].pt:
			out[2] = p
		}
	}
	return out
}

// fourVec converts (pt, eta, phi, m) to (E, px, py, pz).
func fourVec(pt, eta, phi, m float64) (e, px, py, pz float64) {
	px = pt * math.Cos(phi)
	py = pt * math.Sin(phi)
	pz = pt * math.Sinh(eta)
	e = math.Sqrt(m*m + px*px + py*py + pz*pz)
	return
}

// invariantMass2 computes the invariant mass of two objects.
func invariantMass2(pt1, eta1, phi1, m1, pt2, eta2, phi2, m2 float64) float64 {
	e1, x1, y1, z1 := fourVec(pt1, eta1, phi1, m1)
	e2, x2, y2, z2 := fourVec(pt2, eta2, phi2, m2)
	return massOf(e1+e2, x1+x2, y1+y2, z1+z2)
}

// invariantMass3 computes the invariant mass of three massless objects.
func invariantMass3(pt1, eta1, phi1, pt2, eta2, phi2, pt3, eta3, phi3 float64) float64 {
	e1, x1, y1, z1 := fourVec(pt1, eta1, phi1, 0)
	e2, x2, y2, z2 := fourVec(pt2, eta2, phi2, 0)
	e3, x3, y3, z3 := fourVec(pt3, eta3, phi3, 0)
	return massOf(e1+e2+e3, x1+x2+x3, y1+y2+y3, z1+z2+z3)
}

func massOf(e, px, py, pz float64) float64 {
	m2 := e*e - px*px - py*py - pz*pz
	if m2 <= 0 {
		return 0
	}
	return math.Sqrt(m2)
}

// METProcessor is the minimal analysis of the paper's Fig. 4 sample code: a
// histogram of missing transverse energy. It is the quickstart example's
// workload.
type METProcessor struct{}

// Name implements coffea.Processor.
func (METProcessor) Name() string { return "met" }

// Columns lists the single branch touched.
func (METProcessor) Columns() []string { return []string{"MET_pt"} }

// Process fills the Fig. 4 histogram: hist.new.Reg(100, 0, 200, name="met").
func (METProcessor) Process(ev *coffea.NanoEvents) (*coffea.HistSet, error) {
	met, err := ev.Flat("MET_pt")
	if err != nil {
		return nil, err
	}
	hs := coffea.NewHistSet()
	h := hist.New(hist.Reg(100, 0, 200, "met"))
	h.FillN(met)
	hs.H["met"] = h
	return hs, nil
}

// RegisterProcessors installs the live processors in the coffea registry.
func RegisterProcessors() {
	coffea.Register(DV3Processor{})
	coffea.Register(TriPhotonProcessor{})
	coffea.Register(METProcessor{})
}
