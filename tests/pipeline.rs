//! Cross-crate integration: the full §5 pipeline from simulated benchmark
//! output files to query artifacts, exercising workloads → input → import →
//! storage → query → output in one pass.

use perfbase::core::experiment::{AccessLevel, ExperimentDb};
use perfbase::core::import::{Importer, MissingPolicy};
use perfbase::core::input::input_description_from_str;
use perfbase::core::query::spec::query_from_str;
use perfbase::core::query::QueryRunner;
use perfbase::core::status;
use perfbase::core::xmldef;
use perfbase::sqldb::cluster::{Cluster, LatencyModel};
use perfbase::sqldb::{Engine, Value};
use perfbase::workloads::beffio::{simulate, BeffIoConfig, FsType, Technique};
use std::collections::HashMap;
use std::sync::Arc;

const EXPERIMENT: &str = include_str!("../crates/bench/data/b_eff_io_experiment.xml");
const INPUT: &str = include_str!("../crates/bench/data/b_eff_io_input.xml");

fn campaign_db(reps: u32) -> ExperimentDb {
    let def = xmldef::definition_from_str(EXPERIMENT).unwrap();
    let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();
    let desc = input_description_from_str(INPUT).unwrap();
    let importer = Importer::new(&db).at_time(1_101_229_830);
    for technique in [Technique::ListBased, Technique::ListLess] {
        for rep in 1..=reps {
            let run = simulate(BeffIoConfig {
                technique,
                run_index: rep,
                seed: u64::from(rep) * 7 + technique.file_tag().len() as u64,
                ..BeffIoConfig::default()
            });
            let report = importer
                .import_file(&desc, &run.filename(), &run.render())
                .unwrap();
            assert_eq!(report.runs_created.len(), 1, "one run per output file");
        }
    }
    db
}

#[test]
fn import_extracts_all_variables() {
    let db = campaign_db(2);
    assert_eq!(db.run_ids().unwrap().len(), 4);
    let s = db.run_summary(1).unwrap();
    // 24 data rows per b_eff_io file (3 modes × 8 chunk sizes).
    assert_eq!(s.datasets, 24);
    let get = |name: &str| {
        s.once_values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .unwrap()
    };
    assert_eq!(get("fs"), Value::Text("ufs".into()));
    assert_eq!(get("technique"), Value::Text("listbased".into()));
    assert_eq!(get("mem"), Value::Int(256));
    assert_eq!(get("t_spec"), Value::Int(10));
    assert_eq!(get("hostname"), Value::Text("grisu0.ccrl-nece.de".into()));
    assert!(matches!(get("date_run"), Value::Timestamp(t) if t > 1_000_000_000));
    assert!(matches!(get("b_eff"), Value::Float(b) if b > 0.0));
}

#[test]
fn dataset_columns_complete() {
    let db = campaign_db(1);
    let (cols, rows) = db.run_datasets(1).unwrap();
    assert_eq!(
        cols,
        vec![
            "n_proc",
            "pos",
            "s_chunk",
            "mode",
            "b_scatter",
            "b_shared",
            "b_separate",
            "b_segmented",
            "b_segcoll"
        ]
    );
    assert_eq!(rows.len(), 24);
    assert!(rows.iter().all(|r| r.iter().all(|v| !v.is_null())));
}

#[test]
fn statistical_query_reports_plausible_stddev() {
    let db = campaign_db(5);
    let q = query_from_str(
        r#"<query name="stats">
          <source id="s">
            <parameter name="technique" value="listbased"/>
            <parameter name="mode" value="read"/>
            <parameter name="s_chunk" carry="true"/>
            <value name="b_separate"/>
          </source>
          <operator id="mean" type="avg" input="s"/>
          <operator id="sdev" type="stddev" input="s"/>
          <combiner id="both" input="mean,sdev" suffixes="_avg,_sd"/>
          <output id="o" input="both" format="csv"/>
        </query>"#,
    )
    .unwrap();
    let out = QueryRunner::new(&db).run(q).unwrap();
    let csv = &out.artifacts["o"];
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "s_chunk,b_separate_avg,b_separate_sd"
    );
    let mut n = 0;
    for line in lines {
        let f: Vec<f64> = line.split(',').map(|x| x.parse().unwrap()).collect();
        let (avg, sd) = (f[1], f[2]);
        assert!(avg > 0.0);
        // ufs noise is ~6 %: stddev must be positive but far below the mean.
        assert!(
            sd > 0.0 && sd < 0.5 * avg,
            "chunk {}: avg {avg}, sd {sd}",
            f[0]
        );
        n += 1;
    }
    assert_eq!(n, 8);
}

#[test]
fn access_control_enforced_through_pipeline() {
    let db = campaign_db(1);
    db.check_access("demo", AccessLevel::Admin).unwrap();
    assert!(db.check_access("mallory", AccessLevel::Query).is_err());
}

#[test]
fn duplicate_file_rejected_across_sessions() {
    let db = campaign_db(1);
    let desc = input_description_from_str(INPUT).unwrap();
    let run = simulate(BeffIoConfig::default()); // same as seed 1? (seed differs)
    let importer = Importer::new(&db);
    let r1 = importer
        .import_file(&desc, &run.filename(), &run.render())
        .unwrap();
    assert_eq!(r1.runs_created.len(), 1);
    let r2 = importer
        .import_file(&desc, &run.filename(), &run.render())
        .unwrap();
    assert_eq!(r2.duplicates_skipped, 1);
}

#[test]
fn persistence_roundtrip_through_sql_dump() {
    let db = campaign_db(2);
    let dump = db.engine().dump_sql();
    let restored = Engine::from_sql_dump(&dump).unwrap();
    let db2 = ExperimentDb::open(Arc::new(restored)).unwrap();
    assert_eq!(db2.run_ids().unwrap(), db.run_ids().unwrap());
    assert_eq!(db2.definition(), db.definition());
    // Queries on the restored database give identical artifacts.
    let q = r#"<query name="q">
      <source id="s"><parameter name="s_chunk" carry="true"/><value name="b_scatter"/></source>
      <operator id="m" type="avg" input="s"/>
      <output id="o" input="m" format="csv"/>
    </query>"#;
    let a = QueryRunner::new(&db)
        .run(query_from_str(q).unwrap())
        .unwrap();
    let b = QueryRunner::new(&db2)
        .run(query_from_str(q).unwrap())
        .unwrap();
    assert_eq!(a.artifacts["o"], b.artifacts["o"]);
}

#[test]
fn parallel_and_sequential_agree_end_to_end() {
    let db = campaign_db(3);
    let q = r#"<query name="q">
      <source id="s_old">
        <parameter name="technique" value="listbased"/>
        <parameter name="s_chunk" carry="true"/>
        <parameter name="mode" carry="true"/>
        <value name="b_separate"/>
      </source>
      <source id="s_new">
        <parameter name="technique" value="listless"/>
        <parameter name="s_chunk" carry="true"/>
        <parameter name="mode" carry="true"/>
        <value name="b_separate"/>
      </source>
      <operator id="max_old" type="max" input="s_old"/>
      <operator id="max_new" type="max" input="s_new"/>
      <operator id="rel" type="above" input="max_new,max_old"/>
      <output id="o" input="rel" format="csv"/>
    </query>"#;
    let local = QueryRunner::new(&db)
        .run(query_from_str(q).unwrap())
        .unwrap();
    // The same waves with the elements placed on four cluster nodes.
    let cluster = Cluster::new(4, LatencyModel::none());
    let placed = QueryRunner::new(&db)
        .on_cluster(&cluster)
        .run(query_from_str(q).unwrap())
        .unwrap();
    assert_eq!(local.artifacts["o"], placed.artifacts["o"]);
}

#[test]
fn evolution_mid_campaign() {
    let db = campaign_db(1);
    // A new parameter appears after data was gathered (paper §3.1).
    db.update_definition(|def| {
        use perfbase::core::experiment::{VarKind, Variable};
        def.add_variable(
            Variable::new(
                "os_release",
                VarKind::Parameter,
                perfbase::sqldb::DataType::Text,
            )
            .once(),
        )
    })
    .unwrap();
    // Old runs show NULL for the new parameter; new imports can fill it.
    let s = db.run_summary(1).unwrap();
    assert!(s
        .once_values
        .iter()
        .any(|(n, v)| n == "os_release" && v.is_null()));

    let mut once = HashMap::new();
    once.insert("os_release".to_string(), Value::Text("2.6.6".into()));
    once.insert("technique".to_string(), Value::Text("listbased".into()));
    let id = db.add_run(&once, &[], 0).unwrap();
    let s = db.run_summary(id).unwrap();
    assert!(s
        .once_values
        .iter()
        .any(|(n, v)| n == "os_release" && *v == Value::Text("2.6.6".into())));
}

#[test]
fn discard_policy_on_corrupt_file() {
    let db = campaign_db(1);
    let desc = input_description_from_str(INPUT).unwrap();
    // A truncated output file missing the table and most named locations.
    let corrupt = "MEMORY PER PROCESSOR = 256 MBytes\ngarbage\n";
    let report = Importer::new(&db)
        .with_policy(MissingPolicy::DiscardIncomplete)
        .import_file(&desc, "bio_T10_N4_listbased_ufs_grisu_runX", corrupt)
        .unwrap();
    assert_eq!(report.runs_discarded, 1);
    assert!(report.runs_created.is_empty());
}

#[test]
fn binary_trace_import_joins_the_pipeline() {
    use perfbase::core::input::trace::{TraceField, TraceType, TraceWriter};
    let db = campaign_db(1);
    // An instrumented MPI-IO run emits a binary trace instead of ASCII.
    let mut w = TraceWriter::new(vec![
        TraceField {
            name: "technique".into(),
            ty: TraceType::Text,
        },
        TraceField {
            name: "fs".into(),
            ty: TraceType::Text,
        },
        TraceField {
            name: "s_chunk".into(),
            ty: TraceType::Int,
        },
        TraceField {
            name: "mode".into(),
            ty: TraceType::Text,
        },
        TraceField {
            name: "b_separate".into(),
            ty: TraceType::Float,
        },
    ]);
    for (chunk, bw) in [(1024i64, 59.0f64), (32768, 80.0), (1048576, 85.0)] {
        w.record(&[
            Value::Text("listless".into()),
            Value::Text("pvfs".into()),
            Value::Int(chunk),
            Value::Text("write".into()),
            Value::Float(bw),
        ])
        .unwrap();
    }
    let bytes = w.finish();
    let importer = Importer::new(&db);
    let report = importer.import_trace("run.pbtr", &bytes).unwrap();
    assert_eq!(report.runs_created.len(), 1);
    let s = db.run_summary(report.runs_created[0]).unwrap();
    assert_eq!(s.datasets, 3);
    assert!(s
        .once_values
        .contains(&("fs".to_string(), Value::Text("pvfs".into()))));
    // Dedup applies to traces too.
    let again = importer.import_trace("run_copy.pbtr", &bytes).unwrap();
    assert_eq!(again.duplicates_skipped, 1);
    // And the imported trace data is queryable like any ASCII import.
    let q = r#"<query name="q">
      <source id="s">
        <parameter name="fs" value="pvfs"/>
        <parameter name="s_chunk" carry="true"/>
        <value name="b_separate"/>
      </source>
      <output id="o" input="s" format="csv"/>
    </query>"#;
    let out = QueryRunner::new(&db)
        .run(perfbase::core::query::spec::query_from_str(q).unwrap())
        .unwrap();
    assert_eq!(out.artifacts["o"].lines().count(), 1 + 3);
}

#[test]
fn anomaly_screening_finds_planted_glitch() {
    use perfbase::core::anomaly::{screen_experiment, AnomalyConfig};
    use perfbase::core::query::spec::{Filter, FilterOp, RunFilter, SourceSpec};
    let db = campaign_db(5);
    // Plant a transient glitch: one extra run whose large-read bandwidth
    // collapsed (the §5 "transient drop in I/O performance" situation).
    let mut once = HashMap::new();
    once.insert("technique".to_string(), Value::Text("listbased".into()));
    once.insert("fs".to_string(), Value::Text("ufs".into()));
    let datasets: Vec<HashMap<String, Value>> = vec![[
        ("s_chunk".to_string(), Value::Int(2_097_152)),
        ("mode".to_string(), Value::Text("read".into())),
        ("b_separate".to_string(), Value::Float(3.0)), // ~150x below normal
    ]
    .into()];
    db.add_run(&once, &datasets, 2_000_000_000).unwrap();

    let source = SourceSpec {
        filters: vec![Filter {
            parameter: "technique".into(),
            op: FilterOp::Eq,
            value: "listbased".into(),
        }],
        run_filter: RunFilter::default(),
        carry: vec!["mode".into(), "s_chunk".into()],
        values: vec!["b_separate".into()],
    };
    let report = screen_experiment(&db, &source, &AnomalyConfig::default()).unwrap();
    assert!(
        report
            .deviations
            .iter()
            .any(|d| d.value == 3.0 && d.sigma < -1.0),
        "the glitch must be flagged: {report:?}"
    );
}

#[test]
fn sweep_hole_detection_on_campaign() {
    let db = campaign_db(1);
    // technique × fs grid: only ufs was measured, so no holes on observed
    // values of a single axis; add an nfs run for one technique only.
    let desc = input_description_from_str(INPUT).unwrap();
    let run = simulate(BeffIoConfig {
        fs: FsType::Nfs,
        technique: Technique::ListBased,
        seed: 99,
        run_index: 9,
        ..BeffIoConfig::default()
    });
    Importer::new(&db)
        .import_file(&desc, &run.filename(), &run.render())
        .unwrap();
    let holes = status::missing_sweep_points(&db, &["technique", "fs"]).unwrap();
    assert_eq!(holes.len(), 1);
    assert!(holes[0]
        .combination
        .contains(&("technique".to_string(), Value::Text("listless".into()))));
    assert!(holes[0]
        .combination
        .contains(&("fs".to_string(), Value::Text("nfs".into()))));
}
