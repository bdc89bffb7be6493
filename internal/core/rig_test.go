package core

import (
	"math/rand"
	"testing"

	"rfprism/internal/fit"
	"rfprism/internal/geom"
	"rfprism/internal/preprocess"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// goldenRig is a seeded simulated deployment with its antennas
// calibrated from a bare reference tag, as exp.NewSetup does: every
// window it observes runs the production front end (sim → preprocess
// → robust line fit → antenna correction), so the solver tests built
// on it also cover the simulator's phase quantization and
// polarization geometry.
type goldenRig struct {
	scene *sim.Scene
	cal   AntennaCal
}

func newGoldenRig(t *testing.T, seed int64, deploy func(*rand.Rand) []sim.Antenna) *goldenRig {
	t.Helper()
	scene, err := sim.NewScene(deploy(rand.New(rand.NewSource(seed))),
		rf.LabMultipath(), sim.DefaultConfig(), seed+1)
	if err != nil {
		t.Fatal(err)
	}
	r := &goldenRig{scene: scene}
	calPos := geom.Vec3{X: 1.0, Y: 1.5}
	none := goldenMaterial(t, "none")
	ref := r.observe(t, sim.Static{
		Pos:          calPos,
		Polarization: rf.TagPolarization2D(0),
		Material:     none,
		Attach:       rf.Attach(none, rf.AttachmentJitter{}, nil),
	})
	if r.cal, err = CalibrateAntennas(ref, calPos, 0); err != nil {
		t.Fatal(err)
	}
	return r
}

func goldenMaterial(t *testing.T, name string) rf.Material {
	t.Helper()
	m, err := rf.MaterialByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// place is a static tag on material m with placement jitter drawn
// from the scene RNG.
func (r *goldenRig) place(pos geom.Vec3, pol geom.Vec3, m rf.Material) sim.Static {
	return sim.Static{Pos: pos, Polarization: pol, Material: m,
		Attach: rf.Attach(m, rf.DefaultAttachmentJitter(), r.scene.Rand())}
}

// observe collects one window of a static tag and returns its
// calibrated observations.
func (r *goldenRig) observe(t *testing.T, pl sim.Static) []Observation {
	t.Helper()
	win := r.scene.CollectWindow(r.scene.NewTag("golden"), pl)
	spectra, err := preprocess.BuildSpectra(win, preprocess.Options{})
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]Observation, len(spectra))
	for i, sp := range spectra {
		line, err := fit.FitLineRobust(sp.Freqs(), sp.Phases(), sp.RSSIs(), fit.RobustOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ant := r.scene.Antennas[i]
		obs[i] = Observation{ID: ant.ID, Pos: ant.Pos, Frame: ant.Frame(), Line: line}
	}
	return r.cal.Apply(obs)
}
