package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"minaret/internal/coi"
	"minaret/internal/core"
	"minaret/internal/loadgen"
	"minaret/internal/ontology"
	"minaret/internal/scholarly"
	"minaret/internal/simweb"
	"minaret/internal/workload"
)

// The scholarly world is a fixed exemplar: the corpus, its planted
// scenario cases and the judged manuscripts come from worldSeed on
// every run, and the run's seed draws the workload on that world: the
// order of the editor's manuscripts, the rotation of the venue queues
// and the corpus mutations. Drawing the corpus or the manuscript population from the
// run's seed moved every latency by 10-25% between seeds, which would
// drown the effects the benchmark is there to show.
const worldSeed = 2019

// Input sizes.
const (
	corpusScholars = 300 // base corpus before scenario injection
	generatedCases = 160 // judged manuscripts on top of the scenario cases
	// topK is the reviewers asked per manuscript: minaret-server's
	// default. Recall is measured at it and every gate checks every slot.
	topK = 10
)

// gtCase is one manuscript with its ground truth.
type gtCase struct {
	Name       string
	Manuscript core.Manuscript
	Authors    map[scholarly.ScholarID]bool
	Relevant   map[scholarly.ScholarID]bool
	// Bad is every scholar whose recommendation is a COI leak: the
	// scenario's forbidden set plus every judged conflict the sources
	// reveal (see observableConflict).
	Bad map[scholarly.ScholarID]bool
	// Unseen are judged conflicts no source reveals: the system cannot
	// filter them, so recommending one is counted, not a leak.
	Unseen map[scholarly.ScholarID]bool
}

// world is the seeded input of a run.
type world struct {
	ont    *ontology.Ontology
	corpus *scholarly.Corpus
	cases  []*gtCase // scenario cases first, then generated ones
	// twin maps each scholar who shares full name and current
	// institution with another to a key common to the group: what five
	// of the six sites show of them is identical.
	twin       map[scholarly.ScholarID]string
	corpusPath string
	rng        *rand.Rand
}

// makeWorld generates the corpus, plants the adversarial scenarios,
// judges the manuscripts and saves the corpus for simweb; seed seeds the
// world's random source, which the workloads draw from.
func makeWorld(seed int64, dir string) (*world, error) {
	ont := ontology.Default()
	c, err := scholarly.Generate(scholarly.GeneratorConfig{
		Seed: worldSeed, NumScholars: corpusScholars, Topics: ont.Topics(), Related: ont.RelatedMap(),
	})
	if err != nil {
		return nil, err
	}
	seeds, err := scholarly.InjectScenarios(c, nil, scholarly.ScenarioOptions{
		Topics: ont.Topics(), Related: ont.RelatedMap(),
	})
	if err != nil {
		return nil, err
	}
	man, err := loadgen.BuildManifest(c, ont, seeds, loadgen.BuildOptions{TopK: topK})
	if err != nil {
		return nil, err
	}
	w := &world{ont: ont, corpus: c, rng: rand.New(rand.NewSource(seed))}
	w.findTwins()
	for i := range man.Cases {
		mc := &man.Cases[i]
		w.addCase(mc.Name, mc.Manuscript, mc.AuthorIDs, idSet(mc.Relevant), idSet(mc.Conflicted), mc.Forbidden)
	}
	items := workload.NewGenerator(c, ont, workload.Config{Seed: worldSeed, NumManuscripts: generatedCases}).Generate()
	for i, it := range items {
		w.addCase(fmt.Sprintf("generated/%d", i), it.Manuscript, it.AuthorIDs, it.Relevant, it.Conflicted, nil)
	}
	w.corpusPath = filepath.Join(dir, "corpus.json.gz")
	f, err := os.Create(w.corpusPath)
	if err != nil {
		return nil, err
	}
	if err := c.Save(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return w, nil
}

// addCase records a case, splitting its judged conflicts into those the
// sources reveal (leaks if recommended) and those they do not.
func (w *world) addCase(name string, m core.Manuscript, authors []scholarly.ScholarID,
	relevant, conflicted map[scholarly.ScholarID]bool, forbidden []scholarly.ScholarID) {
	cs := &gtCase{Name: name, Manuscript: m, Authors: idSet(authors), Relevant: relevant,
		Bad: idSet(forbidden), Unseen: map[scholarly.ScholarID]bool{}}
	for id := range conflicted {
		if w.observableConflict(id, authors) {
			cs.Bad[id] = true
		} else if !cs.Bad[id] {
			cs.Unseen[id] = true
		}
	}
	w.cases = append(w.cases, cs)
}

// findTwins groups scholars by full name and current institution.
func (w *world) findTwins() {
	groups := map[string][]scholarly.ScholarID{}
	for i := range w.corpus.Scholars {
		s := &w.corpus.Scholars[i]
		key := strings.ToLower(s.Name.Full() + "|" + s.CurrentAffiliation().Institution)
		groups[key] = append(groups[key], s.ID)
	}
	w.twin = map[scholarly.ScholarID]string{}
	for key, ids := range groups {
		if len(ids) > 1 {
			for _, id := range ids {
				w.twin[id] = key
			}
		}
	}
}

// observableConflict reports whether the profiles the system assembles
// reveal the judged conflict between reviewer r and the authors. An
// author with a twin cannot be told apart, so none of their conflicts
// is observable. Otherwise a shared paper is (publication lists name
// co-authors), and so is an institution both visibly held: every site
// but DBLP shows the current affiliation on the profile, and ORCID
// alone shows the history.
func (w *world) observableConflict(r scholarly.ScholarID, authors []scholarly.ScholarID) bool {
	visible := func(id scholarly.ScholarID) map[string]bool {
		s := w.corpus.Scholar(id)
		p := s.Presence
		out := map[string]bool{}
		if p.GoogleScholar || p.Publons || p.ACMDL || p.ORCID || p.ResearcherID {
			out[strings.ToLower(s.CurrentAffiliation().Institution)] = true
		}
		if p.ORCID {
			for _, a := range s.Affiliations {
				out[strings.ToLower(a.Institution)] = true
			}
		}
		return out
	}
	rInst := visible(r)
	for _, a := range authors {
		if w.twin[a] != "" {
			continue
		}
		if w.corpus.CoAuthors(a)[r] > 0 {
			return true
		}
		for inst := range visible(a) {
			if inst != "" && rInst[inst] {
				return true
			}
		}
	}
	return false
}

func idSet(ids []scholarly.ScholarID) map[scholarly.ScholarID]bool {
	out := make(map[scholarly.ScholarID]bool, len(ids))
	for _, id := range ids {
		out[id] = true
	}
	return out
}

// engineConfig is the configuration minaret-server gives its engine
// (httpapi: coi.DefaultConfig at the horizon year, ranking at the same
// horizon). A zero core.Config would skip COI filtering.
func (w *world) engineConfig() core.Config {
	cfg := core.Config{TopK: topK}
	cfg.Filter.COI = coi.DefaultConfig(w.corpus.HorizonYear)
	cfg.Ranking.HorizonYear = w.corpus.HorizonYear
	return cfg
}

// venueQueues groups the cases into venue submission queues: the
// cases of each target venue in chunks of size, dropping a shorter
// remainder. Queues are ordered by venue name.
func (w *world) venueQueues(size int) [][]*gtCase {
	byVenue := map[string][]*gtCase{}
	for _, cs := range w.cases {
		v := cs.Manuscript.TargetVenue
		byVenue[v] = append(byVenue[v], cs)
	}
	venues := make([]string, 0, len(byVenue))
	for v := range byVenue {
		venues = append(venues, v)
	}
	sort.Strings(venues)
	var out [][]*gtCase
	for _, v := range venues {
		for cs := byVenue[v]; len(cs) >= size; cs = cs[size:] {
			out = append(out, cs[:size])
		}
	}
	return out
}

// verdict tallies the hard gates and recall over checked results.
type verdict struct {
	leaks, merges, selfRecs, dups, unmapped int
	unseen                                  int // judged conflicts no source reveals
	twinMerges                              int // merges of scholars no site tells apart
	recallSum                               float64
	scored                                  int
	failures                                []string
}

// check scores one result against its case's ground truth. A
// recommendation whose site IDs resolve to several scholars is an
// identity merge, unless they are twins (same name and current
// institution, which is all five of the six sites show): that merge is
// counted apart and not scored.
func (v *verdict) check(w *world, cs *gtCase, res *core.Result) {
	seen := map[scholarly.ScholarID]bool{}
	hits := 0
	for _, rec := range res.Recommendations {
		ids := simweb.ScholarIDsOf(rec.Reviewer.SiteIDs)
		switch {
		case len(ids) > 1 && w.twins(ids):
			v.twinMerges++
			continue
		case len(ids) > 1:
			v.merges++
			v.fail("%s: %q resolves to %d identities", cs.Name, rec.Reviewer.Name, len(ids))
			continue
		case len(ids) == 0:
			v.unmapped++
			v.fail("%s: %q has no site id", cs.Name, rec.Reviewer.Name)
			continue
		}
		id := ids[0]
		if seen[id] {
			v.dups++
			v.fail("%s: scholar %d recommended twice", cs.Name, id)
		}
		seen[id] = true
		if cs.Authors[id] {
			v.selfRecs++
			v.fail("%s: author %d recommended", cs.Name, id)
		}
		if cs.Bad[id] {
			v.leaks++
			v.fail("%s: COI leak, scholar %d", cs.Name, id)
		}
		if cs.Unseen[id] {
			v.unseen++
		}
		if cs.Relevant[id] {
			hits++
		}
	}
	// recall@k: relevant hits over min(k, |relevant|), as loadgen scores.
	if denom := min(topK, len(cs.Relevant)); denom > 0 {
		v.recallSum += float64(hits) / float64(denom)
		v.scored++
	}
}

// twins reports whether all ids are one twin group.
func (w *world) twins(ids []scholarly.ScholarID) bool {
	key := w.twin[ids[0]]
	for _, id := range ids {
		if key == "" || w.twin[id] != key {
			return false
		}
	}
	return true
}

func (v *verdict) fail(format string, args ...any) {
	if len(v.failures) < 20 {
		v.failures = append(v.failures, fmt.Sprintf(format, args...))
	}
}

// countMetrics reports the outcomes the gates count apart, per op.
func (v *verdict) countMetrics(ops int) map[string]float64 {
	return map[string]float64{
		"nameres.twin_merges_per_op":  perOp(float64(v.twinMerges), ops),
		"coi.unseen_conflicts_per_op": perOp(float64(v.unseen), ops),
	}
}

func (v *verdict) recall() float64 { return ratio(v.recallSum, float64(v.scored)) }

// gateErrors lists the violated hard gates.
func (v *verdict) gateErrors() []string {
	if v.leaks+v.merges+v.selfRecs+v.dups+v.unmapped == 0 {
		return nil
	}
	out := []string{fmt.Sprintf("gates: %d COI leaks, %d identity merges, %d self-recommendations, %d duplicates, %d unmappable",
		v.leaks, v.merges, v.selfRecs, v.dups, v.unmapped)}
	return append(out, v.failures...)
}
