#include "workload/profiles.h"

#include "util/check.h"

namespace wire::workload {

namespace {

/// Splits a dataset (MB) across stages with geometrically decaying volume:
/// stage k processes `total * decay^k`, normalized so stage 0 sees the raw
/// dataset. Mirrors the usual map->reduce volume reduction.
double stage_volume(double dataset_mb, std::size_t stage_index,
                    double decay = 0.5) {
  double v = dataset_mb;
  for (std::size_t i = 0; i < stage_index; ++i) v *= decay;
  return v;
}

}  // namespace

WorkflowProfile epigenomics_profile(Scale scale) {
  // 8-stage USC Epigenome pipeline: fastQSplit fans out into per-chunk
  // filter/convert/map pipelines which merge back for indexing and pileup.
  // Table I: S = 405 tasks (stage widths 1–100), L = 4005 (1–1000);
  // stage mean exec 1–54.88 s (S), 1–57.57 s (L); dataset 2 MB / 13 MB;
  // aggregate exec 1.433 h / 13.895 h.
  const bool small = scale == Scale::Small;
  const std::uint32_t n = small ? 100 : 1000;
  const double dataset_mb = small ? 2.048 : 13.312;

  WorkflowProfile p;
  p.family = "Epigenomics";
  p.framework = "Condor";
  p.name = small ? "Genome S" : "Genome L";
  p.skew_class_probability = 0.45;  // genome chunks are heavily skewed
  const double map_mean = small ? 43.0 : 42.0;
  const double pileup_mean = small ? 54.88 : 57.57;
  // Peak-memory means: the reference-genome mapping stages are memory-heavy
  // (index resident in RAM); the per-chunk format converters are light.
  p.stages = {
      {"fastqSplit", 1, small ? 30.0 : 45.0, stage_volume(dataset_mb, 0),
       StageLink::Source, 1200.0},
      {"filterContams", n, small ? 2.5 : 3.0, stage_volume(dataset_mb, 1),
       StageLink::FanOut, 400.0},
      {"sol2sanger", n, 1.0, stage_volume(dataset_mb, 2),
       StageLink::Partition, 300.0},
      {"fast2bfq", n, small ? 3.0 : 4.2, stage_volume(dataset_mb, 3),
       StageLink::Partition, 350.0},
      {"map", n, map_mean, stage_volume(dataset_mb, 4), StageLink::Partition,
       small ? 1800.0 : 2200.0},
      {"mapMerge", 2, small ? 25.0 : 35.0, stage_volume(dataset_mb, 5),
       StageLink::AllToAll, 1400.0},
      {"maqIndex", 1, small ? 20.0 : 30.0, stage_volume(dataset_mb, 6),
       StageLink::AllToAll, 2200.0},
      {"pileup", 1, pileup_mean, stage_volume(dataset_mb, 7),
       StageLink::AllToAll, small ? 2400.0 : 2800.0},
  };
  return p;
}

WorkflowProfile tpch1_profile(Scale scale) {
  // TPC-H Q1 as a 4-stage Hadoop plan: scan/aggregate map, shuffle reduce,
  // second aggregation map, final reduce. Table I: S = 62 tasks (1–32 per
  // stage, stage means 2–13.24 s, 7.27 GB), L = 229 (1–124, 1.05–14.89 s,
  // 29.53 GB).
  const bool small = scale == Scale::Small;
  WorkflowProfile p;
  p.family = "TPC-H";
  p.framework = "Hadoop";
  p.name = small ? "TPCH-1 S" : "TPCH-1 L";
  p.skew_class_probability = 0.30;
  const double dataset_mb = (small ? 7.27 : 29.53) * 1024.0;
  // Peak-memory means: shuffle-side aggregation buffers dominate.
  if (small) {
    p.stages = {
        {"scan_map", 32, 13.24, stage_volume(dataset_mb, 0),
         StageLink::Source, 900.0},
        {"agg_reduce", 16, 9.0, stage_volume(dataset_mb, 1, 0.1),
         StageLink::AllToAll, 1500.0},
        {"regroup_map", 13, 5.0, stage_volume(dataset_mb, 2, 0.1),
         StageLink::AllToAll, 700.0},
        {"final_reduce", 1, 2.0, stage_volume(dataset_mb, 3, 0.1),
         StageLink::AllToAll, 500.0},
    };
  } else {
    p.stages = {
        {"scan_map", 124, 14.89, stage_volume(dataset_mb, 0),
         StageLink::Source, 1000.0},
        {"agg_reduce", 62, 10.0, stage_volume(dataset_mb, 1, 0.1),
         StageLink::AllToAll, 1700.0},
        {"regroup_map", 42, 5.0, stage_volume(dataset_mb, 2, 0.1),
         StageLink::AllToAll, 800.0},
        {"final_reduce", 1, 1.05, stage_volume(dataset_mb, 3, 0.1),
         StageLink::AllToAll, 500.0},
    };
  }
  return p;
}

WorkflowProfile tpch6_profile(Scale scale) {
  // TPC-H Q6 is a single filtered aggregation: wide scan map + one reduce.
  // Table I: S = 33 tasks (stage means 2–7.3 s), L = 118 (3–8.43 s).
  const bool small = scale == Scale::Small;
  WorkflowProfile p;
  p.family = "TPC-H";
  p.framework = "Hadoop";
  p.name = small ? "TPCH-6 S" : "TPCH-6 L";
  p.skew_class_probability = 0.25;
  const double dataset_mb = (small ? 7.27 : 29.53) * 1024.0;
  // Peak-memory means: a filtered-scan query is memory-light throughout.
  if (small) {
    p.stages = {
        {"scan_map", 32, 7.3, stage_volume(dataset_mb, 0), StageLink::Source,
         800.0},
        {"sum_reduce", 1, 2.0, stage_volume(dataset_mb, 1, 0.01),
         StageLink::AllToAll, 400.0},
    };
  } else {
    p.stages = {
        {"scan_map", 117, 8.43, stage_volume(dataset_mb, 0),
         StageLink::Source, 900.0},
        {"sum_reduce", 1, 3.0, stage_volume(dataset_mb, 1, 0.01),
         StageLink::AllToAll, 400.0},
    };
  }
  return p;
}

WorkflowProfile pagerank_profile(Scale scale) {
  // Intel HiBench PageRank: iterative map/reduce rounds (12 stages).
  // Table I: S = 115 tasks (6–18 per stage, means 5.28–21.5 s, 0.26 GB),
  // L = 313 (6–60 per stage, means 26.61–166.18 s, 2.88 GB).
  const bool small = scale == Scale::Small;
  WorkflowProfile p;
  p.family = "PageRank";
  p.framework = "Hadoop";
  p.name = small ? "PageRank S" : "PageRank L";
  p.skew_class_probability = 0.35;
  const double dataset_mb = (small ? 0.26 : 2.88) * 1024.0;

  struct Row { const char* name; std::uint32_t count; double mean;
               double mem; };
  // Alternating iteration map/reduce stages; widths sum to the Table I task
  // totals and means span exactly the published ranges. Peak-memory means:
  // the in-memory rank vector grows through the iterations, reduces buffer
  // the shuffled contributions.
  const std::vector<Row> rows_small = {
      {"hyperlink_map", 18, 21.5, 1100.0}, {"hyperlink_red", 12, 8.0, 700.0},
      {"iter1_map", 12, 14.0, 1200.0},     {"iter1_red", 9, 9.0, 800.0},
      {"iter2_map", 9, 13.0, 1300.0},      {"iter2_red", 9, 8.0, 800.0},
      {"iter3_map", 9, 12.0, 1400.0},      {"iter3_red", 9, 7.0, 800.0},
      {"rank_map", 9, 10.0, 1500.0},       {"rank_red", 7, 6.0, 900.0},
      {"sort_map", 6, 5.28, 600.0},        {"sort_red", 6, 9.0, 1000.0},
  };
  const std::vector<Row> rows_large = {
      {"hyperlink_map", 60, 166.18, 1400.0}, {"hyperlink_red", 40, 60.0, 900.0},
      {"iter1_map", 30, 90.0, 1500.0},       {"iter1_red", 30, 55.0, 1000.0},
      {"iter2_map", 25, 80.0, 1600.0},       {"iter2_red", 25, 50.0, 1000.0},
      {"iter3_map", 20, 70.0, 1700.0},       {"iter3_red", 20, 45.0, 1000.0},
      {"rank_map", 20, 60.0, 1800.0},        {"rank_red", 15, 35.0, 1100.0},
      {"sort_map", 6, 26.61, 700.0},         {"sort_red", 22, 40.0, 1200.0},
  };
  const auto& rows = small ? rows_small : rows_large;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    StageProfile sp;
    sp.name = rows[i].name;
    sp.task_count = rows[i].count;
    sp.mean_exec_seconds = rows[i].mean;
    sp.stage_input_mb = stage_volume(dataset_mb, i, 0.75);
    sp.link = i == 0 ? StageLink::Source : StageLink::AllToAll;
    sp.mean_peak_mem_mb = rows[i].mem;
    p.stages.push_back(std::move(sp));
  }
  return p;
}

std::vector<WorkflowProfile> table1_profiles() {
  return {
      epigenomics_profile(Scale::Small), epigenomics_profile(Scale::Large),
      tpch1_profile(Scale::Small),       tpch1_profile(Scale::Large),
      tpch6_profile(Scale::Small),       tpch6_profile(Scale::Large),
      pagerank_profile(Scale::Small),    pagerank_profile(Scale::Large),
  };
}

}  // namespace wire::workload
