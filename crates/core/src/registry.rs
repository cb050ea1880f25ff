//! The closed table of exploration strategies.
//!
//! Strategies are addressed by **spec strings** of the form `name` or
//! `name(key=value, key=value)` — e.g. `dpor(deps=lazy-locks)`,
//! `caching(mode=lazy)` or `bounded(start=0, step=1)`. [`create`] builds
//! the explorer a spec names; [`entries`] and [`alias_table`] list the
//! table for `lazylocks strategies` and `GET /strategies`.
//!
//! The grammar is `dfs`, `random`, `dpor[deps=regular|lazy-locks]`,
//! `caching[mode=regular|lazy]`, `lazy-dpor` and
//! `bounded[start,max,step,mode=regular|lazy]`, plus the aliases `chess`
//! (= `bounded`) and `lazy-caching` (= `caching(mode=lazy)`). `dpor`
//! always uses sleep sets; it still accepts the legacy `sleep=true`,
//! which older specs, checkpoints and journals name, and refuses
//! `sleep=false`.
//!
//! ```
//! use lazylocks::{registry, ExploreConfig};
//! use lazylocks_model::ProgramBuilder;
//!
//! let explorer = registry::create("dpor").unwrap();
//!
//! let mut b = ProgramBuilder::new("p");
//! let x = b.var("x", 0);
//! b.thread("T1", |t| t.store(x, 1));
//! b.thread("T2", |t| t.store(x, 2));
//! let stats = explorer.explore(&b.build(), &ExploreConfig::with_limit(100));
//! assert_eq!(stats.unique_states, 2);
//! ```

use crate::explore::{
    DependenceMode, DfsEnumeration, Dpor, Explorer, HbrCaching, IterativeBounding, LazyDpor,
    RandomWalk,
};
use std::collections::BTreeMap;
use std::fmt;

/// `(name, help)` of every strategy, sorted by name.
const STRATEGIES: [(&str, &str); 6] = [
    (
        "bounded",
        "CHESS-style iterative preemption bounding \
         [start=N, max=N, step=N, mode=regular/lazy]",
    ),
    ("caching", "prefix-HBR caching [mode=regular/lazy]"),
    ("dfs", "exhaustive depth-first enumeration"),
    (
        "dpor",
        "dynamic partial-order reduction with sleep sets [deps=regular/lazy-locks]",
    ),
    ("lazy-dpor", "sleep-free prototype lazy DPOR (paper §4)"),
    ("random", "uniform random walks (seed from the config)"),
];

/// `(alias, target)`, sorted by alias. Every target is a spec of a
/// strategy in [`STRATEGIES`], so an alias resolves in one step.
const ALIASES: [(&str, &str); 2] = [("chess", "bounded"), ("lazy-caching", "caching(mode=lazy)")];

/// Why a spec string was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec does not match `name` / `name(k=v, …)`.
    Malformed {
        /// The offending spec.
        spec: String,
        /// What went wrong.
        reason: String,
    },
    /// No strategy or alias has this name.
    UnknownStrategy {
        /// The unknown name.
        name: String,
        /// Every strategy name and alias, for the error message.
        known: Vec<String>,
    },
    /// The strategy exists but does not take this parameter.
    UnknownParam {
        /// The strategy name.
        strategy: String,
        /// The rejected parameter key.
        param: String,
    },
    /// The parameter exists but the value does not parse.
    InvalidValue {
        /// The strategy name.
        strategy: String,
        /// The parameter key.
        param: String,
        /// The rejected value.
        value: String,
        /// What would have been accepted.
        expected: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Malformed { spec, reason } => {
                write!(f, "malformed strategy spec {spec:?}: {reason}")
            }
            SpecError::UnknownStrategy { name, known } => {
                write!(f, "unknown strategy {name:?}; known: {}", known.join(", "))
            }
            SpecError::UnknownParam { strategy, param } => {
                write!(f, "strategy {strategy:?} takes no parameter {param:?}")
            }
            SpecError::InvalidValue {
                strategy,
                param,
                value,
                expected,
            } => write!(
                f,
                "invalid value {value:?} for {strategy}({param}=…): expected {expected}"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// A parsed spec: strategy name plus its remaining key=value parameters.
///
/// [`create`] *takes* the parameters the strategy understands; whatever
/// is left is reported as [`SpecError::UnknownParam`], so typos fail
/// loudly instead of silently running a default.
struct SpecParams {
    name: String,
    params: BTreeMap<String, String>,
}

impl SpecParams {
    /// Parses `name` or `name(k=v, …)`.
    fn parse(spec: &str) -> Result<SpecParams, SpecError> {
        let malformed = |reason: &str| SpecError::Malformed {
            spec: spec.to_string(),
            reason: reason.to_string(),
        };
        let s = spec.trim();
        if s.is_empty() {
            return Err(malformed("empty spec"));
        }
        let (name, body) = match s.find('(') {
            None => (s, None),
            Some(open) => {
                let Some(rest) = s[open + 1..].strip_suffix(')') else {
                    return Err(malformed("missing closing parenthesis"));
                };
                (&s[..open], Some(rest))
            }
        };
        let name = name.trim();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(malformed("strategy names are [a-zA-Z0-9_-]+"));
        }
        let mut params = BTreeMap::new();
        if let Some(body) = body {
            for pair in body.split(',') {
                let pair = pair.trim();
                if pair.is_empty() {
                    // Tolerate `name()` and trailing commas.
                    continue;
                }
                let Some((k, v)) = pair.split_once('=') else {
                    return Err(malformed("parameters are key=value pairs"));
                };
                let (k, v) = (k.trim(), v.trim());
                if k.is_empty() || v.is_empty() {
                    return Err(malformed("parameters are key=value pairs"));
                }
                if params.insert(k.to_string(), v.to_string()).is_some() {
                    return Err(malformed("duplicate parameter"));
                }
            }
        }
        Ok(SpecParams {
            name: name.to_string(),
            params,
        })
    }

    /// Consumes a `u32` parameter.
    fn take_u32(&mut self, key: &str, default: u32) -> Result<u32, SpecError> {
        match self.params.remove(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| self.invalid(key, &v, "an unsigned integer")),
        }
    }

    /// Consumes an enumerated parameter; the value must be one of
    /// `choices`.
    fn take_choice(
        &mut self,
        key: &str,
        choices: &[&str],
        default: &str,
    ) -> Result<String, SpecError> {
        debug_assert!(choices.contains(&default));
        match self.params.remove(key) {
            None => Ok(default.to_string()),
            Some(v) if choices.contains(&v.as_str()) => Ok(v),
            Some(v) => Err(self.invalid(key, &v, &format!("one of {}", choices.join("/")))),
        }
    }

    fn invalid(&self, param: &str, value: &str, expected: &str) -> SpecError {
        SpecError::InvalidValue {
            strategy: self.name.clone(),
            param: param.to_string(),
            value: value.to_string(),
            expected: expected.to_string(),
        }
    }
}

/// Builds the explorer described by `spec`.
pub fn create(spec: &str) -> Result<Box<dyn Explorer>, SpecError> {
    let mut p = SpecParams::parse(spec)?;
    if let Some((_, target)) = ALIASES.iter().find(|(alias, _)| *alias == p.name) {
        // Parameters written with the alias override its target's.
        let written = std::mem::take(&mut p.params);
        p = SpecParams::parse(target)?;
        p.params.extend(written);
    }
    let explorer: Box<dyn Explorer> = match p.name.as_str() {
        "dfs" => Box::new(DfsEnumeration),
        "dpor" => {
            // `sleep=true` is the one legacy value older specs,
            // checkpoints and journals name.
            if let Some(v) = p.params.remove("sleep") {
                if v != "true" {
                    return Err(p.invalid(
                        "sleep",
                        &v,
                        "true: dpor always uses sleep sets \
                         (the sleep-free prototype is lazy-dpor)",
                    ));
                }
            }
            let dependence = match p
                .take_choice("deps", &["regular", "lazy-locks"], "regular")?
                .as_str()
            {
                "lazy-locks" => DependenceMode::LazyLockAcquisitions,
                _ => DependenceMode::Regular,
            };
            Box::new(Dpor { dependence })
        }
        "caching" => Box::new(caching(&mut p, "regular")?),
        "lazy-dpor" => Box::new(LazyDpor),
        "random" => Box::new(RandomWalk),
        "bounded" => {
            let start_bound = p.take_u32("start", 0)?;
            let max_bound = p.take_u32("max", 3)?;
            let bound_step = p.take_u32("step", 1)?;
            if bound_step == 0 {
                return Err(p.invalid("step", "0", "a positive step"));
            }
            let caching = caching(&mut p, "lazy")?;
            Box::new(IterativeBounding {
                start_bound,
                max_bound,
                bound_step,
                caching,
            })
        }
        _ => {
            return Err(SpecError::UnknownStrategy {
                name: p.name,
                known: specs().into_iter().map(str::to_string).collect(),
            })
        }
    };
    if let Some(param) = p.params.keys().next() {
        return Err(SpecError::UnknownParam {
            strategy: p.name.clone(),
            param: param.clone(),
        });
    }
    Ok(explorer)
}

/// The caching explorer the `mode=regular/lazy` parameter of the caching
/// strategies names.
fn caching(p: &mut SpecParams, default: &str) -> Result<HbrCaching, SpecError> {
    Ok(
        match p
            .take_choice("mode", &["regular", "lazy"], default)?
            .as_str()
        {
            "lazy" => HbrCaching::lazy(),
            _ => HbrCaching::regular(),
        },
    )
}

/// `(name, help)` for every strategy, sorted by name.
pub fn entries() -> &'static [(&'static str, &'static str)] {
    &STRATEGIES
}

/// Every `(alias, target)` pair, sorted by alias.
pub fn alias_table() -> &'static [(&'static str, &'static str)] {
    &ALIASES
}

/// Every accepted spec name: strategy names plus aliases, sorted.
pub fn specs() -> Vec<&'static str> {
    let mut out: Vec<&str> = STRATEGIES.iter().chain(&ALIASES).map(|e| e.0).collect();
    out.sort_unstable();
    out
}

/// [`create`] at the path the benchmark probe (`lazybench/probe`) calls
/// it from.
#[derive(Default)]
pub struct StrategyRegistry;

impl StrategyRegistry {
    /// Builds the explorer described by `spec`; see [`create`].
    pub fn create(&self, spec: &str) -> Result<Box<dyn Explorer>, SpecError> {
        create(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExploreConfig;
    use lazylocks_model::ProgramBuilder;

    fn tiny_program() -> lazylocks_model::Program {
        let mut b = ProgramBuilder::new("tiny");
        let x = b.var("x", 0);
        b.thread("T1", |t| t.store(x, 1));
        b.thread("T2", |t| t.store(x, 2));
        b.build()
    }

    #[test]
    fn default_registry_exposes_all_legacy_strategies() {
        let expected = [
            "bounded",
            "caching",
            "chess",
            "dfs",
            "dpor",
            "lazy-caching",
            "lazy-dpor",
            "random",
        ];
        assert_eq!(specs(), expected);
        for name in expected {
            let explorer = StrategyRegistry.create(name);
            assert!(explorer.is_ok(), "{name} must resolve");
        }
    }

    #[test]
    fn listings_name_six_strategies_and_two_aliases_in_order() {
        let expected = [
            (
                "bounded",
                "CHESS-style iterative preemption bounding \
                 [start=N, max=N, step=N, mode=regular/lazy]",
            ),
            ("caching", "prefix-HBR caching [mode=regular/lazy]"),
            ("dfs", "exhaustive depth-first enumeration"),
            (
                "dpor",
                "dynamic partial-order reduction with sleep sets [deps=regular/lazy-locks]",
            ),
            ("lazy-dpor", "sleep-free prototype lazy DPOR (paper §4)"),
            ("random", "uniform random walks (seed from the config)"),
        ];
        assert_eq!(entries(), expected);
        assert_eq!(
            alias_table(),
            [("chess", "bounded"), ("lazy-caching", "caching(mode=lazy)")]
        );
    }

    #[test]
    fn every_advertised_spec_creates_a_working_explorer() {
        let p = tiny_program();
        for spec in specs() {
            let explorer = create(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            let stats = explorer.explore(&p, &ExploreConfig::with_limit(50));
            assert!(stats.schedules >= 1, "{spec} explored nothing");
        }
    }

    #[test]
    fn parameterised_specs_configure_the_explorer() {
        // Every accepted spelling and the strategy id it reports.
        for (spec, id) in [
            ("dfs", "dfs"),
            ("random", "random"),
            ("dpor", "dpor"),
            ("dpor(sleep=true)", "dpor"),
            ("dpor(deps=regular)", "dpor"),
            ("dpor(deps=lazy-locks)", "dpor-lazy-locks"),
            ("dpor(deps=lazy-locks,sleep=true)", "dpor-lazy-locks"),
            ("caching", "caching"),
            ("caching(mode=regular)", "caching"),
            ("caching(mode=lazy)", "lazy-caching"),
            ("lazy-caching", "lazy-caching"),
            ("lazy-dpor", "lazy-dpor"),
            ("bounded", "bounded"),
            ("bounded(mode=lazy)", "bounded"),
            ("bounded(start=1, max=2, step=1)", "bounded"),
            ("bounded(mode=regular)", "bounded-regular"),
            ("chess", "bounded"),
            ("chess(mode=regular)", "bounded-regular"),
        ] {
            let explorer = create(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(explorer.name(), id, "{spec}");
        }
        // The nine configurations (bounded's integer bounds aside) report
        // nine distinct ids.
        let configurations = [
            "dfs",
            "random",
            "dpor",
            "dpor(deps=lazy-locks)",
            "caching(mode=regular)",
            "caching(mode=lazy)",
            "lazy-dpor",
            "bounded(mode=regular)",
            "bounded(mode=lazy)",
        ];
        let ids: std::collections::BTreeSet<String> = configurations
            .iter()
            .map(|spec| create(spec).unwrap().name())
            .collect();
        assert_eq!(ids.len(), configurations.len(), "shared ids: {ids:?}");
    }

    #[test]
    fn alias_params_merge_with_user_params() {
        // `chess(max=1)` = alias target + extra parameter.
        assert_eq!(create("chess(max=1)").unwrap().name(), "bounded");
        // The alias parameter can also be overridden outright.
        let e = create("lazy-caching(mode=regular)").unwrap();
        assert_eq!(e.name(), "caching");
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",
            "   ",
            "dpor(",
            "dpor)",
            "dpor(sleep)",
            "dpor(sleep=)",
            "dpor(=true)",
            "dpor(sleep=true,sleep=false)",
            "dp or",
        ] {
            assert!(
                matches!(create(bad), Err(SpecError::Malformed { .. })),
                "{bad:?} must be malformed"
            );
        }
    }

    #[test]
    fn unknown_names_params_and_values_are_rejected() {
        assert!(matches!(
            create("zen-garden"),
            Err(SpecError::UnknownStrategy { .. })
        ));
        // The in-process parallel family was removed outright: no alias
        // silently maps its old names onto a sequential strategy.
        for name in [
            "parallel",
            "parallel-dfs",
            "parallel-dpor",
            "parallel-lazy-dpor(workers=2)",
        ] {
            assert!(
                matches!(create(name), Err(SpecError::UnknownStrategy { .. })),
                "{name} must not resolve"
            );
        }
        // Removed modes and their aliases: gone, not silently remapped.
        for name in [
            "dpor-sleep",
            "dpor-nosleep",
            "sync-caching",
            "lazy-dpor-vars",
        ] {
            assert!(
                matches!(create(name), Err(SpecError::UnknownStrategy { .. })),
                "{name} must not resolve"
            );
        }
        for spec in [
            "dpor(deps=lazy-vars)",
            "caching(mode=sync)",
            "bounded(mode=sync)",
        ] {
            assert!(
                matches!(create(spec), Err(SpecError::InvalidValue { .. })),
                "{spec} must be refused"
            );
        }
        for spec in ["lazy-dpor(style=vars)", "lazy-dpor(style=locks)"] {
            assert!(
                matches!(create(spec), Err(SpecError::UnknownParam { .. })),
                "{spec} must be refused"
            );
        }
        // Sleep-free DPOR is refused with a pointer to the prototype.
        for spec in ["dpor(sleep=false)", "dpor(deps=lazy-locks,sleep=0)"] {
            let Err(err) = create(spec) else {
                panic!("{spec} must be refused");
            };
            assert!(matches!(err, SpecError::InvalidValue { .. }), "{spec}");
            assert!(err.to_string().contains("lazy-dpor"), "{err}");
        }
        assert!(matches!(
            create("dfs(workers=3)"),
            Err(SpecError::UnknownParam { .. })
        ));
        assert!(matches!(
            create("dpor(sleep=maybe)"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            create("bounded(step=0)"),
            Err(SpecError::InvalidValue { .. })
        ));
        // Error messages name the offender.
        let Err(err) = create("zen-garden") else {
            panic!("unknown strategy must not resolve");
        };
        let err = err.to_string();
        assert!(err.contains("zen-garden") && err.contains("dpor"));
    }
}
