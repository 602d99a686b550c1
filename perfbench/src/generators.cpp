#include "generators.h"

#include <algorithm>

namespace perfbench {

namespace {

/// Fisher-Yates shuffle driven by Rng.
template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (int i = static_cast<int>(v->size()) - 1; i > 0; --i) {
    std::swap((*v)[static_cast<size_t>(i)],
              (*v)[static_cast<size_t>(rng->Below(i + 1))]);
  }
}

std::string Str(int v) { return std::to_string(v); }

}  // namespace

const std::string& Sp2bPrologue() {
  static const std::string* p = new std::string(
      "PREFIX bench: <http://localhost/vocabulary/bench/>\n"
      "PREFIX dblp: <http://localhost/publications/>\n"
      "PREFIX dc: <http://purl.org/dc/elements/1.1/>\n"
      "PREFIX dcterms: <http://purl.org/dc/terms/>\n"
      "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
      "PREFIX swrc: <http://swrc.ontoware.org/ontology#>\n");
  return *p;
}

Sp2bData GenerateSp2b(const Sp2bConfig& c, uint64_t seed) {
  Sp2bData d;
  d.config = c;
  Rng rng(seed ^ 0x5350324255ULL);
  std::string& out = d.turtle;
  out.reserve(16u << 20);
  out +=
      "@prefix bench: <http://localhost/vocabulary/bench/> .\n"
      "@prefix dblp: <http://localhost/publications/> .\n"
      "@prefix dc: <http://purl.org/dc/elements/1.1/> .\n"
      "@prefix dcterms: <http://purl.org/dc/terms/> .\n"
      "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n"
      "@prefix swrc: <http://swrc.ontoware.org/ontology#> .\n"
      "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n";

  // Appends dc:creator for 1-4 distinct random persons; returns them.
  auto creators = [&](int i) {
    int k = 1 + i % 4;
    std::vector<int> who;
    while (static_cast<int>(who.size()) < k) {
      int p = rng.Below(c.persons);
      if (std::find(who.begin(), who.end(), p) == who.end()) who.push_back(p);
    }
    out += " ; dc:creator ";
    for (size_t a = 0; a < who.size(); ++a) {
      if (a > 0) out += ", ";
      out += "dblp:person_" + Str(who[a]);
    }
    d.triples += who.size();
    return who;
  };

  d.articles.assign(static_cast<size_t>(c.journals), 0);
  d.with_month.assign(static_cast<size_t>(c.journals), 0);
  d.authorships.assign(static_cast<size_t>(c.journals), 0);
  d.distinct_years.assign(static_cast<size_t>(c.journals), 0);
  d.max_year.assign(static_cast<size_t>(c.journals), 0);
  d.authors.assign(static_cast<size_t>(c.journals), {});
  for (int j = 0; j < c.journals; ++j) {
    out += "dblp:journal_" + Str(j) + " a bench:Journal ; dc:title \"Journal " +
           Str(j) + "\" ; dcterms:issued " + Str(1940 + j % 20) + " .\n";
    d.triples += 3;
  }
  int article = 0;
  for (int j = 0; j < c.journals; ++j) {
    std::set<int> years;
    for (int a = 0; a < c.articles_per_journal; ++a, ++article) {
      int year = 1960 + rng.Below(50);
      years.insert(year);
      d.max_year[j] = std::max(d.max_year[j], year);
      out += "dblp:article_" + Str(article) +
             " a bench:Article ; dc:title \"Article " + Str(article) +
             "\" ; dcterms:issued " + Str(year) + " ; swrc:journal dblp:journal_" +
             Str(j) + " ; swrc:pages " + Str(1 + rng.Below(400));
      d.triples += 5;
      for (int p : creators(article)) d.authors[j].insert(p);
      d.authorships[j] += 1 + article % 4;
      if (rng.Below(2) == 0) {
        out += " ; swrc:month " + Str(1 + rng.Below(12));
        ++d.triples;
        ++d.with_month[j];
      }
      if (rng.Below(3) == 0) {
        out += " ; rdfs:seeAlso <http://www.example.org/a" + Str(article) + ">";
        ++d.triples;
      }
      out += " .\n";
      ++d.articles[j];
    }
    d.distinct_years[j] = static_cast<int>(years.size());
  }

  d.inproceedings.assign(static_cast<size_t>(c.proceedings), 0);
  int inproc = 0;
  for (int k = 0; k < c.proceedings; ++k) {
    out += "dblp:proc_" + Str(k) +
           " a bench:Proceedings ; dc:title \"Proceedings " + Str(k) +
           "\" ; dcterms:issued " + Str(1960 + rng.Below(50)) + " .\n";
    d.triples += 3;
    for (int i = 0; i < c.inproceedings_per_proc; ++i, ++inproc) {
      out += "dblp:inproc_" + Str(inproc) +
             " a bench:Inproceedings ; dc:title \"Inproceedings " +
             Str(inproc) + "\" ; dcterms:issued " + Str(1960 + rng.Below(50)) +
             " ; dcterms:partOf dblp:proc_" + Str(k) + " ; swrc:pages " +
             Str(1 + rng.Below(400));
      d.triples += 5;
      creators(inproc);
      if (rng.Below(3) == 0) {
        out += " ; rdfs:seeAlso <http://www.example.org/i" + Str(inproc) + ">";
        ++d.triples;
      }
      out += " .\n";
      ++d.inproceedings[k];
    }
  }

  for (int p = 0; p < c.persons; ++p) {
    out += "dblp:person_" + Str(p) + " a foaf:Person ; foaf:name \"Person " +
           Str(p) + "\" .\n";
    d.triples += 2;
  }
  return d;
}

const std::string& RingsPrologue() {
  static const std::string* p =
      new std::string("PREFIX ex: <http://example.org/rings/>\n");
  return *p;
}

RingsData GenerateRings(const RingsConfig& c, uint64_t seed) {
  RingsData d;
  d.config = c;
  Rng rng(seed ^ 0x52494e4753ULL);
  d.ring_size.resize(static_cast<size_t>(c.rings));
  for (int r = 0; r < c.rings; ++r) {
    d.ring_size[r] = c.sizes[static_cast<size_t>(r) % c.sizes.size()];
  }
  Shuffle(&d.ring_size, &rng);
  d.ring_size.insert(d.ring_size.end(), static_cast<size_t>(c.big_rings),
                     c.big_size);
  std::string& out = d.turtle;
  out.reserve(8u << 20);
  out += "@prefix ex: <http://example.org/rings/> .\n";
  for (int r = 0; r < c.rings + c.big_rings; ++r) {
    int n = d.ring_size[r];
    // Node numbering starts at a seed-chosen offset, so the same ring size
    // sits under different IRIs for different seeds.
    int offset = rng.Below(1000);
    d.ring_offset.push_back(offset);
    for (int i = 0; i < n; ++i) {
      std::string node = "ex:r" + Str(r) + "_" + Str(offset + i);
      out += node + " ex:knows ex:r" + Str(r) + "_" +
             Str(offset + (i + 1) % n);
      ++d.triples;
      if (i % c.label_every == 0) {
        out += " ; ex:label \"ring " + Str(r) + " node " + Str(i) + "\"";
        ++d.triples;
      }
      out += " .\n";
    }
  }
  return d;
}

const std::string& ExperimentsPrologue() {
  static const std::string* p =
      new std::string("PREFIX ex: <http://example.org/lab/>\n");
  return *p;
}

ExperimentsData GenerateExperiments(const ExperimentsConfig& c,
                                    uint64_t seed) {
  ExperimentsData d;
  d.config = c;
  Rng rng(seed ^ 0x4c4142ULL);
  d.above_threshold.assign(c.thresholds.size(), 0);
  std::string& out = d.turtle;
  out.reserve(16u << 20);
  out += "@prefix ex: <http://example.org/lab/> .\n";
  int m = 0;
  int ann = 0;
  for (int e = 0; e < c.experiments; ++e) {
    int temperature = 250 + rng.Below(150);
    for (size_t t = 0; t < c.thresholds.size(); ++t) {
      if (temperature > c.thresholds[t]) ++d.above_threshold[t];
    }
    std::string exp = "ex:exp_" + Str(e);
    out += exp + " a ex:Experiment ; ex:temperature " + Str(temperature) +
           " ; ex:operator \"operator " + Str(rng.Below(50)) + "\" .\n";
    d.triples += 3;
    for (int k = 0; k < c.measurements_per_experiment; ++k, ++m) {
      std::string meas = "ex:m_" + Str(m);
      out += exp + " ex:hasMeasurement " + meas + " .\n" + meas +
             " a ex:Measurement ; ex:value " + Str(rng.Below(100000)) +
             " ; ex:unit \"" + (k % 2 == 0 ? "K" : "Pa") + "\" .\n";
      d.triples += 4;
    }
    for (int k = 0; k < c.annotations_per_experiment; ++k, ++ann) {
      out += "ex:ann_b" + Str(ann) + " a ex:Annotation ; ex:about " + exp +
             " ; ex:text \"baseline note " + Str(ann) + "\" .\n";
      d.triples += 3;
    }
  }
  return d;
}

}  // namespace perfbench
