//! The query subsystem (paper §3.3, Figs. 2 and 7).
//!
//! A query is a dataflow graph of four element kinds:
//!
//! * **source** — retrieves data tuples from the experiment database,
//!   filtered by input parameters and run properties;
//! * **operator** — applies statistical functions, reductions and
//!   arithmetic to vectors;
//! * **combiner** — merges two vectors into one;
//! * **output** — renders vectors as Gnuplot input, ASCII tables, CSV,
//!   LaTeX or XML tables.
//!
//! Elements communicate **through temporary database tables** (paper §4.2):
//! each element materialises its output vector into its own temp table and
//! passes only the table name downstream.
//!
//! [`QueryRunner`] is the one runner. It executes the graph in *waves*
//! ([`QueryDag::waves`]): the elements of a wave are independent and run
//! on as many scoped workers as the host has cores (§4.3), and serial
//! execution is simply a wave of width 1. The same path pushes
//! aggregations down to the nodes of a sharded experiment and, with
//! [`QueryRunner::on_cluster`], places the elements on the nodes of a
//! simulated database cluster (Fig. 3). [`dag::simulated_makespan`]
//! predicts that placement's wall-clock from one profiled run.
#![warn(missing_docs)]

pub mod dag;
pub mod exec;
pub mod spec;

pub use dag::{simulated_makespan, QueryDag};
pub use exec::{ElementTiming, ParallelQueryRunner, QueryOutcome, QueryRunner};
pub use spec::{
    CombinerSpec, ElementKind, ElementSpec, Filter, FilterOp, OpKind, OperatorSpec, OutputFormat,
    OutputSpec, PlotStyle, QuerySpec, RunFilter, SourceSpec,
};

use std::collections::HashMap;

/// A data vector flowing between query elements: the name of the temp table
/// holding it plus column metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct DataVector {
    /// Temp table holding the rows.
    pub table: String,
    /// Parameter columns (the dimensions the data varies over).
    pub params: Vec<String>,
    /// Value columns (the measured results).
    pub values: Vec<String>,
    /// Human-readable column labels (with units) for output elements.
    pub labels: HashMap<String, String>,
}

impl DataVector {
    /// Label for a column (falls back to the bare name).
    pub fn label(&self, column: &str) -> String {
        self.labels
            .get(column)
            .cloned()
            .unwrap_or_else(|| column.to_string())
    }
}
