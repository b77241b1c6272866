//! The wave scheduler at different widths. Artifacts, transfer statistics
//! and the order of the timings must not depend on how many workers run a
//! wave — on a plain experiment, on a sharded one, and with the elements
//! placed on cluster nodes (Fig. 3). Temp tables go away on every exit
//! path, and element spans keep their `dag` parent on worker threads.

use super::tests::{seeded_db, sharded_db, CHAIN, COMBINER, FIG7ISH};
use super::{QueryOutcome, QueryRunner};
use crate::query::spec::query_from_str;
use sqldb::cluster::{Cluster, LatencyModel};

/// A parameter sweep: one source → avg chain per technique × chunk (six
/// independent chains, so waves are wider than four workers), reduced to
/// the best average.
fn sweep(name: &str) -> String {
    let mut elements = String::new();
    let mut tops = Vec::new();
    for technique in ["old", "new"] {
        for chunk in [100, 200, 400] {
            let id = format!("{technique}_{chunk}");
            elements.push_str(&format!(
                r#"<source id="s_{id}">
                     <parameter name="technique" value="{technique}"/>
                     <parameter name="chunk" value="{chunk}"/>
                     <value name="bw"/>
                   </source>
                   <operator id="avg_{id}" type="avg" input="s_{id}"/>"#
            ));
            tops.push(format!("avg_{id}"));
        }
    }
    format!(
        r#"<query name="{name}">{elements}
             <operator id="best" type="max" input="{}"/>
             <output id="o" input="best" format="csv"/></query>"#,
        tops.join(",")
    )
}

fn corpus() -> Vec<(&'static str, String)> {
    vec![
        ("fig7", FIG7ISH.to_string()),
        ("sweep", sweep("sweep")),
        ("combiner", COMBINER.to_string()),
        ("chain", CHAIN.to_string()),
    ]
}

fn run(runner: &QueryRunner, xml: &str, width: usize) -> QueryOutcome {
    runner
        .run_width(query_from_str(xml).unwrap(), width)
        .unwrap()
}

fn timing_ids(out: &QueryOutcome) -> Vec<&str> {
    out.timings.iter().map(|t| t.id.as_str()).collect()
}

/// Byte-identical artifacts, equal transfer messages and rows, and the
/// same timing order.
fn assert_same(a: &QueryOutcome, b: &QueryOutcome, what: &str) {
    assert_eq!(a.artifacts, b.artifacts, "{what}: artifacts");
    let moved = |o: &QueryOutcome| o.transfer.map(|t| (t.messages, t.rows));
    assert_eq!(moved(a), moved(b), "{what}: transfer");
    assert_eq!(timing_ids(a), timing_ids(b), "{what}: timing order");
}

#[test]
fn parallel_matches_sequential() {
    let db = seeded_db();
    for (name, xml) in corpus() {
        let one = run(&QueryRunner::new(&db), &xml, 1);
        let four = run(&QueryRunner::new(&db), &xml, 4);
        assert_same(&one, &four, name);
    }
}

#[test]
fn sharded_widths_agree() {
    for nodes in [2, 4] {
        let db = sharded_db(nodes);
        for (name, xml) in corpus() {
            let one = run(&QueryRunner::new(&db), &xml, 1);
            let four = run(&QueryRunner::new(&db), &xml, 4);
            assert!(
                one.transfer.is_some(),
                "{name}: sharded runs report traffic"
            );
            assert_same(&one, &four, &format!("{name} on {nodes} shards"));
        }
    }
}

#[test]
fn cluster_distribution_matches_sequential() {
    let db = seeded_db();
    for (name, xml) in corpus() {
        let want = run(&QueryRunner::new(&db), &xml, 1);
        let placed = |width| {
            let cluster = Cluster::new(4, LatencyModel::none());
            let out = run(&QueryRunner::new(&db).on_cluster(&cluster), &xml, width);
            // Temp tables cleaned on all nodes.
            for n in 0..cluster.len() {
                assert!(cluster.node(n).engine.temp_table_names().is_empty());
            }
            out
        };
        let one = placed(1);
        assert_eq!(one.artifacts, want.artifacts, "{name}: placed vs frontend");
        assert_same(&one, &placed(4), &format!("{name} placed"));
    }
}

#[test]
fn cluster_mode_charges_transfers() {
    let db = seeded_db();
    let cluster = Cluster::new(2, LatencyModel::none());
    let out = QueryRunner::new(&db)
        .on_cluster(&cluster)
        .run(query_from_str(FIG7ISH).unwrap())
        .unwrap();
    // With 6 elements round-robined over 2 nodes, something must have
    // crossed node boundaries, and the outcome reports it.
    assert!(cluster.stats().messages > 0);
    assert_eq!(
        out.transfer.map(|t| t.messages),
        Some(cluster.stats().messages)
    );
}

#[test]
fn timings_recorded_per_element() {
    let db = seeded_db();
    let out = run(&QueryRunner::new(&db), FIG7ISH, 4);
    // By wave, then by position in the spec.
    assert_eq!(
        timing_ids(&out),
        ["s_old", "s_new", "max_old", "max_new", "rel", "o"]
    );
}

/// A failing source listed before a good one: a wave of two.
const BAD_FIRST: &str = r#"<query name="leak">
  <source id="s_bad"><value name="zzz"/></source>
  <source id="s_ok"><parameter name="chunk" carry="true"/><value name="bw"/></source>
  <output id="o" input="s_bad,s_ok"/></query>"#;

/// Both sources succeed; the operator after them fails (it cannot align a
/// multi-row vector without shared parameters).
const BAD_LATER: &str = r#"<query name="leak_later">
  <source id="a">
    <parameter name="technique" value="old"/>
    <parameter name="chunk" carry="true"/>
    <value name="bw"/>
  </source>
  <source id="b"><parameter name="technique" value="new"/><value name="bw"/></source>
  <operator id="d" type="diff" input="a,b"/>
  <output id="o" input="d" format="csv"/></query>"#;

#[test]
fn errors_propagate_from_workers() {
    let db = seeded_db();
    for xml in [BAD_FIRST, BAD_LATER] {
        assert!(QueryRunner::new(&db)
            .run_width(query_from_str(xml).unwrap(), 4)
            .is_err());
    }
}

#[test]
fn failed_query_drops_its_temp_tables() {
    let db = seeded_db();
    let cluster = Cluster::new(2, LatencyModel::none());
    for xml in [BAD_FIRST, BAD_LATER] {
        for width in [1, 4] {
            for runner in [
                QueryRunner::new(&db),
                QueryRunner::new(&db).on_cluster(&cluster),
            ] {
                assert!(runner
                    .run_width(query_from_str(xml).unwrap(), width)
                    .is_err());
            }
            assert_eq!(db.engine().temp_table_names(), Vec::<String>::new());
            for n in 0..cluster.len() {
                assert_eq!(
                    cluster.node(n).engine.temp_table_names(),
                    Vec::<String>::new()
                );
            }
        }
    }
}

#[test]
fn element_spans_on_workers_keep_the_dag_parent() {
    let db = seeded_db();
    let spec = query_from_str(&sweep("traced_sweep")).unwrap();
    let mut want: Vec<String> = spec.elements.iter().map(|e| e.id.clone()).collect();
    let collector = obs::TraceCollector::new();
    obs::set_sink(Some(collector.clone()));
    let out = QueryRunner::new(&db).run_width(spec, 4);
    obs::set_sink(None);
    out.unwrap();
    let records = collector.records();
    let dag = records
        .iter()
        .find(|r| r.name == "dag" && r.detail.starts_with("query=traced_sweep "))
        .expect("the query's dag span");
    let mut children: Vec<String> = records
        .iter()
        .filter(|r| r.name == "element" && r.parent == Some(dag.id))
        .map(|r| r.detail.split(' ').next().unwrap()["id=".len()..].to_string())
        .collect();
    children.sort();
    want.sort();
    assert_eq!(children, want);
}
