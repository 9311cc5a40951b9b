//! # `ec-bench` — the experiment harness
//!
//! One executable, `reproduce <name|all> [key=value…]`, regenerates every
//! table and figure of the paper plus the repo's own ablations
//! (`scripts/reproduce.sh` wraps it to write `results/<name>.txt` with the
//! git revision in the first line). This library writes once what every
//! experiment shares:
//!
//! * [`Experiment`] / [`Key`] — the table in [`experiments::EXPERIMENTS`]:
//!   name, title, default datasets, accepted `key=value` overrides with
//!   typed defaults, and the function that produces the rows;
//! * [`reproduce`] — strict argument parsing (an unknown experiment or key,
//!   an unparsable value or an unknown dataset is a usage error, exit
//!   code 2 — never a silent default), dataset filtering, [`bench_dataset`]
//!   instantiation (bench scale: the suite regenerates in minutes; sizes
//!   are printed with every run), the replica banner and row emission;
//! * [`systems`] — the paper's eight systems behind one [`systems::run`],
//!   all on the one simulated cluster of `ec-graph`.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]

pub mod experiments;
pub mod systems;

use ec_graph_data::{AttributedGraph, DatasetSpec};
use std::io::Write;
use std::str::FromStr;
use std::sync::Arc;

/// One accepted `key=value` override of an experiment.
#[derive(Clone, Copy)]
pub struct Key {
    /// The key as typed on the command line.
    pub name: &'static str,
    /// The value used when the key is not given.
    pub default: &'static str,
    /// Whether a value parses as the key's type.
    valid: fn(&str) -> bool,
}

impl Key {
    /// A key whose values must parse as `T`.
    pub const fn new<T: FromStr>(name: &'static str, default: &'static str) -> Self {
        Self { name, default, valid: |v| v.parse::<T>().is_ok() }
    }
}

/// A comma-separated list of `T`, e.g. `layers=2,3,4`.
pub struct List<T>(pub Vec<T>);

impl<T: FromStr> FromStr for List<T> {
    type Err = T::Err;
    fn from_str(s: &str) -> Result<Self, T::Err> {
        s.split(',').map(str::parse).collect::<Result<_, _>>().map(List)
    }
}

/// A quantizer bit width, `1..=16`.
pub struct Bits(pub u8);

impl FromStr for Bits {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        let bits = s.parse::<u8>().map_err(|e| e.to_string())?;
        let valid = (1..=ec_compress::quantize::MAX_BITS).contains(&bits);
        valid.then_some(Bits(bits)).ok_or_else(|| format!("{bits} is outside 1..=16"))
    }
}

/// A comma-separated list of dataset names, each one a known replica.
pub struct Datasets(pub Vec<DatasetSpec>);

impl FromStr for Datasets {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        let all = DatasetSpec::all();
        s.split(',')
            .map(|name| {
                all.iter()
                    .find(|spec| spec.name == name)
                    .cloned()
                    .ok_or_else(|| format!("unknown dataset `{name}`"))
            })
            .collect::<Result<_, _>>()
            .map(Datasets)
    }
}

/// Runs once per dataset replica.
pub type PerDataset = fn(&mut Run, &DatasetSpec, &Arc<AttributedGraph>);

/// What an experiment's row-producing function runs over.
#[derive(Clone, Copy)]
pub enum Body {
    /// The replicas named by the experiment's `datasets=` / `dataset=` key.
    Selected(PerDataset),
    /// A fixed (comma-separated) list of replicas.
    Fixed(&'static str, PerDataset),
    /// Once; the experiment builds its own input.
    Once(fn(&mut Run)),
}

/// One row of the experiment table.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Command-line name and the `"experiment"` tag of its `#json` rows.
    pub name: &'static str,
    /// Stem of its `results/` file — the name of the executable that
    /// produced it before the harness was one table; accepted as an alias.
    pub file: &'static str,
    /// Header line.
    pub title: &'static str,
    /// Accepted keys with their defaults.
    pub keys: &'static [Key],
    /// The function that makes the rows.
    pub body: Body,
}

impl Experiment {
    /// Validates `args` against the declared keys: `(key, value)` as given.
    fn parse(&self, args: &[String]) -> Result<Vec<(&'static str, String)>, String> {
        let usage = |problem: String| {
            let keys: Vec<String> =
                self.keys.iter().map(|k| format!("{}={}", k.name, k.default)).collect();
            format!("{problem}\n{} accepts: {}", self.name, keys.join(" "))
        };
        let mut values = Vec::new();
        for arg in args {
            let Some((name, value)) = arg.split_once('=') else {
                return Err(usage(format!("`{arg}` is not key=value")));
            };
            let Some(key) = self.keys.iter().find(|k| k.name == name) else {
                return Err(usage(format!("unknown key `{name}`")));
            };
            if !(key.valid)(value) {
                return Err(usage(format!("`{value}` is not a valid value for `{name}`")));
            }
            values.push((key.name, value.to_string()));
        }
        Ok(values)
    }
}

/// One experiment invocation: its validated arguments and its output.
pub struct Run<'a> {
    experiment: &'a Experiment,
    values: Vec<(&'static str, String)>,
    out: &'a mut dyn Write,
}

impl Run<'_> {
    /// The value of a declared key (the last one given, else its default).
    ///
    /// # Panics
    /// Panics when the experiment does not declare `name` as a `T` — a bug
    /// in the experiment table, which the in-process smoke test catches.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        let given = self.values.iter().rev().find(|(k, _)| *k == name).map(|(_, v)| v.as_str());
        let declared = self.experiment.keys.iter().find(|k| k.name == name).map(|k| k.default);
        given.or(declared).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            panic!("experiment `{}` does not declare `{name}` with this type", self.experiment.name)
        })
    }

    /// Writes one human-readable line.
    pub fn line(&mut self, text: &str) {
        writeln!(self.out, "{text}").expect("results stream is writable");
    }

    /// Emits one result row — a JSON object — twice from the same fields: a
    /// human-readable `key=value` line and its machine-readable `#json` line
    /// tagged with the experiment's name.
    ///
    /// # Panics
    /// Panics when `row` is not an object (a bug in the experiment).
    pub fn emit(&mut self, row: serde_json::Value) {
        use serde_json::Value;
        let Value::Object(fields) = &row else { panic!("a result row is a JSON object: {row}") };
        let cells: Vec<String> = fields
            .iter()
            .map(|(key, value)| match value {
                Value::String(text) => format!("{key}={text}"),
                Value::Float(x) if *x != 0.0 && x.abs() < 1e-3 => format!("{key}={x:.3e}"),
                Value::Float(x) => format!("{key}={x:.4}"),
                other => format!("{key}={other}"),
            })
            .collect();
        self.line(&format!("  {}", cells.join("  ")));
        let fields = row.to_string();
        self.line(&format!("#json {{\"experiment\":\"{}\",{}", self.experiment.name, &fields[1..]));
    }

    fn execute(&mut self) {
        self.line(&format!("== {} ==", self.experiment.title));
        let keys = self.experiment.keys;
        let (wanted, body) = match self.experiment.body {
            Body::Once(body) => return body(self),
            Body::Fixed(list, body) => (list.parse::<Datasets>().map_or(Vec::new(), |d| d.0), body),
            Body::Selected(body) => {
                let key =
                    keys.iter().find(|k| k.name.starts_with("dataset")).map_or("", |k| k.name);
                (self.get::<Datasets>(key).0, body)
            }
        };
        let selected = |spec: &DatasetSpec| wanted.iter().any(|w| w.name == spec.name);
        for spec in DatasetSpec::all().into_iter().filter(selected) {
            let data = Arc::new(bench_dataset(&spec, self.get("scale"), 7));
            self.line(&format!(
                "-- {} replica: |V|={} |E|={} d0={} C={} --",
                spec.name,
                data.num_vertices(),
                data.graph.num_edges(),
                data.feature_dim(),
                data.num_classes
            ));
            body(self, &spec, &data);
        }
    }
}

/// Runs `reproduce <name|all> [key=value…]` (`args` excludes the program
/// name), writing every row to `out`.
///
/// # Errors
/// A usage message naming the problem and the accepted keys when the
/// experiment is unknown, a key is not one it declares, a value does not
/// parse as the key's type or a dataset name is unknown — before anything
/// runs. With `all`, every key must be declared by at least one experiment
/// and applies to those that declare it.
pub fn reproduce(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let table = experiments::EXPERIMENTS;
    let usage = |problem: String| {
        let names: Vec<&str> = table.iter().map(|e| e.name).collect();
        let synopsis = "usage: reproduce <name|all> [key=value…]";
        format!("{problem}\n{synopsis}\nexperiments: {}", names.join(" "))
    };
    let Some((name, keys)) = args.split_first() else {
        return Err(usage("no experiment named".to_string()));
    };
    // The experiments to run, each with the arguments meant for it.
    let selected: Vec<(&Experiment, Vec<String>)> = if name == "all" {
        let declares = |e: &Experiment, arg: &String| {
            e.keys.iter().any(|k| arg.strip_prefix(k.name).is_some_and(|v| v.starts_with('=')))
        };
        if let Some(stray) = keys.iter().find(|&arg| !table.iter().any(|e| declares(e, arg))) {
            return Err(usage(format!("no experiment accepts `{stray}`")));
        }
        let own = |e| keys.iter().filter(|&arg| declares(e, arg)).cloned().collect();
        table.iter().map(|e| (e, own(e))).collect()
    } else {
        let Some(experiment) = table.iter().find(|e| e.name == name || e.file == name) else {
            return Err(usage(format!("unknown experiment `{name}`")));
        };
        vec![(experiment, keys.to_vec())]
    };
    let parsed: Vec<_> =
        selected.iter().map(|(e, args)| e.parse(args)).collect::<Result<_, _>>()?;
    for ((experiment, _), values) in selected.into_iter().zip(parsed) {
        Run { experiment, values, out: &mut *out }.execute();
    }
    Ok(())
}

/// Bench-scale vertex counts per dataset: small enough that the entire
/// suite regenerates in minutes, large enough that the cross-system
/// orderings are stable. Scaled further by the `scale=` argument.
pub fn bench_vertices(spec: &DatasetSpec, scale: f64) -> usize {
    let base = match spec.name {
        "cora" => 2_708, // full size, like the paper
        "pubmed" => 4_000,
        "reddit" => 4_096, // degree clamps to the structural ceiling (~105)
        "products" => 4_096,
        "papers" => 8_192,
        _ => spec.default_vertices,
    };
    ((base as f64 * scale) as usize).max(64)
}

/// Bench-scale feature dimensions: Cora's 1433-dim features dominate
/// compute without affecting any communication conclusion, so benches trim
/// the two citation graphs.
pub fn bench_feature_dim(spec: &DatasetSpec) -> usize {
    match spec.name {
        "cora" => 256,
        "pubmed" => 128,
        _ => spec.feature_dim,
    }
}

/// Instantiates a dataset replica at bench scale.
pub fn bench_dataset(spec: &DatasetSpec, scale: f64, seed: u64) -> AttributedGraph {
    spec.instantiate_with(bench_vertices(spec, scale), bench_feature_dim(spec), seed)
}

/// The paper's hidden width per dataset (Section V-A: "the hidden layer
/// sizes are set to 16, 16, 16, 256, and 256"), capped at 64 at bench
/// scale so the suite regenerates quickly.
pub fn bench_hidden(spec: &DatasetSpec) -> usize {
    spec.default_hidden.min(64)
}

/// The paper's per-dataset GCN shape: `[d0, hidden × (layers-1), classes]`.
pub fn paper_dims(data: &AttributedGraph, hidden: usize, layers: usize) -> Vec<usize> {
    let mut dims = vec![data.feature_dim()];
    dims.extend(std::iter::repeat_n(hidden, layers - 1));
    dims.push(data.num_classes);
    dims
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejected(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let mut out = Vec::new();
        let usage = reproduce(&args, &mut out).expect_err("must be rejected");
        assert!(out.is_empty(), "a rejected command line must not run anything");
        usage
    }

    /// The four ways a typo used to run the wrong experiment silently.
    #[test]
    fn typos_are_usage_errors_that_name_the_accepted_keys() {
        assert!(rejected(&["figX"]).contains("unknown experiment `figX`"));
        assert!(rejected(&["figX"]).contains("experiments: table2 table4"));
        let unknown_key = rejected(&["fig6", "epoch=5"]);
        assert!(unknown_key.contains("unknown key `epoch`"), "{unknown_key}");
        assert!(unknown_key.contains("fig6 accepts: datasets=cora,reddit epochs=100"));
        assert!(rejected(&["fig6", "epochs=5O"]).contains("`5O` is not a valid value for `epochs`"));
        assert!(rejected(&["fig6", "datasets=nope"]).contains("not a valid value for `datasets`"));
        assert!(
            rejected(&["ttr_sweep", "dataset=nope"]).contains("not a valid value for `dataset`")
        );
        // What `Args::parse` used to drop without a word.
        assert!(rejected(&["fig6", "flag"]).contains("`flag` is not key=value"));
        assert!(rejected(&[]).contains("usage: reproduce"));
        assert!(
            rejected(&["all", "workers=2,4"]).contains("table2 accepts"),
            "valid for fig11 only"
        );
        assert!(rejected(&["all", "n0pe=1"]).contains("no experiment accepts `n0pe=1`"));
        // `table2` declares no `epochs`; out-of-range values fail the type.
        assert!(rejected(&["table2", "epochs=5"]).contains("unknown key `epochs`"));
        assert!(rejected(&["ttr_sweep", "bits=300"]).contains("not a valid value for `bits`"));
        // Integers no run can use fail the key's type, before anything runs,
        // rather than a panic mid-run.
        for args in [
            ["table4", "layers=0"],
            ["fig10", "layers=0"],
            ["table2", "workers=0"],
            ["table5", "workers=0"],
            ["fig11", "workers=0"],
            ["theorem1", "workers=0"],
            ["fig6", "every=0"],
            ["fig7", "every=0"],
            ["ttr_sweep", "bits=0"],
            ["ttr_sweep", "bits=17"],
            ["selector_granularity", "bits=0"],
            ["selector_granularity", "bits=17"],
            ["theorem1", "bits=0"],
            ["theorem1", "bits=17"],
            ["resilience_sweep", "attempts=0"],
            ["theorem1", "n=0"],
        ] {
            let key = args[1].split('=').next().unwrap_or_default();
            let msg = rejected(&args);
            assert!(msg.contains(&format!("not a valid value for `{key}`")), "{args:?}: {msg}");
        }
    }

    #[test]
    fn given_values_override_declared_defaults() {
        let experiment = experiments::EXPERIMENTS.iter().find(|e| e.name == "table4").unwrap();
        let mut out = Vec::new();
        let args = ["epochs=7".to_string(), "layers=2,4".to_string(), "epochs=9".to_string()];
        let run = Run { experiment, values: experiment.parse(&args).unwrap(), out: &mut out };
        assert_eq!(run.get::<usize>("epochs"), 9, "the last occurrence wins");
        assert_eq!(run.get::<List<usize>>("layers").0, [2, 4]);
        assert_eq!(run.get::<f64>("scale"), 1.0);
        let names: Vec<_> = run.get::<Datasets>("datasets").0.iter().map(|s| s.name).collect();
        assert_eq!(names, ["cora", "pubmed", "reddit", "products", "papers"]);
    }

    #[test]
    fn bench_scale_respects_floor() {
        let spec = DatasetSpec::cora();
        assert_eq!(bench_vertices(&spec, 1.0), 2708);
        assert_eq!(bench_vertices(&spec, 1e-9), 64);
    }

    #[test]
    fn paper_dims_shape() {
        let data = DatasetSpec::cora().instantiate_with(100, 32, 1);
        assert_eq!(paper_dims(&data, 16, 3), vec![32, 16, 16, data.num_classes]);
    }

    #[test]
    fn a_row_is_emitted_twice_from_the_same_fields() {
        let experiment = &experiments::EXPERIMENTS[0];
        let mut out = Vec::new();
        let mut run = Run { experiment, values: Vec::new(), out: &mut out };
        run.emit(serde_json::json!({"system": "ec-graph", "epoch_s": 0.0125f64, "tiny": 2.5e-6f64, "n": 3u64}));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "  system=ec-graph  epoch_s=0.0125  tiny=2.500e-6  n=3\n\
             #json {\"experiment\":\"table2\",\"system\":\"ec-graph\",\"epoch_s\":0.0125,\"tiny\":0.0000025,\"n\":3}\n"
        );
    }
}
