//! The original↔transformed construct mapping.
//!
//! "The debugging system maintains a mapping between the original and the
//! transformed program constructs" (§5.1) so the user never sees the
//! intermediate form (§6.1). This module holds that mapping: which
//! parameters were synthesized (and from which global), which statements
//! are synthetic, and which parameters encode exit conditions.

use gadt_pascal::ast::StmtId;
use gadt_pascal::name::Name;
use std::collections::BTreeMap;

/// Why a parameter exists in the transformed program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamOrigin {
    /// Converted from a non-local variable with this (original) name.
    Global(Name),
    /// Encodes exit side-effects: value `0` means a normal return, value
    /// `k ≥ 1` means "perform the k-th non-local goto" listed in
    /// [`ExitInfo::targets`].
    ExitCondition,
}

/// One synthesized parameter of a transformed procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddedParam {
    /// The parameter's name in the transformed program.
    pub name: Name,
    /// Where it came from.
    pub origin: ParamOrigin,
}

/// Exit-parameter details for one transformed procedure.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExitInfo {
    /// The exit-condition parameter's name.
    pub param_name: Name,
    /// Target labels keyed by the exit-condition value. Values are
    /// *globally stable* label codes (derived from the program's label
    /// inventory), so cascading transformation rounds assign the same
    /// code to the same label.
    pub targets: BTreeMap<i64, (Name, Name)>,
}

/// The complete mapping for one transformation run.
///
/// Procedures are keyed by their lowercase path, e.g. `"p/q"` for `q`
/// nested inside `p` (stable across re-analyses of the rewritten AST).
#[derive(Debug, Clone, Default)]
pub struct Mapping {
    /// Parameters added per procedure path.
    pub added_params: BTreeMap<Name, Vec<AddedParam>>,
    /// Exit-condition details per procedure path.
    pub exit_info: BTreeMap<Name, ExitInfo>,
    /// Statements synthesized by the transformation, with a description
    /// (e.g. `"exit dispatch for call of q"`).
    pub synthetic_stmts: BTreeMap<StmtId, String>,
}

impl Mapping {
    /// Whether a statement was synthesized by the transformation.
    pub fn is_synthetic(&self, s: StmtId) -> bool {
        self.synthetic_stmts.contains_key(&s)
    }

    /// Description of a synthetic statement, if any.
    pub fn describe(&self, s: StmtId) -> Option<&str> {
        self.synthetic_stmts.get(&s).map(String::as_str)
    }

    /// The exit-goto rendering for a procedure's exit-condition value:
    /// `None` for 0 (normal return), otherwise the `(owner, label)` pair.
    pub fn exit_target(&self, proc_path: &str, value: i64) -> Option<&(Name, Name)> {
        if value <= 0 {
            return None;
        }
        self.exit_info
            .get(proc_path)
            .and_then(|e| e.targets.get(&value))
    }

    /// Records an added parameter.
    pub fn add_param(&mut self, proc_path: impl Into<Name>, param: AddedParam) {
        self.added_params
            .entry(proc_path.into())
            .or_default()
            .push(param);
    }

    /// Records a synthetic statement.
    pub fn add_synthetic(&mut self, s: StmtId, what: impl Into<String>) {
        self.synthetic_stmts.insert(s, what.into());
    }

    /// Merges another mapping produced by a later phase.
    pub fn merge(&mut self, other: Mapping) {
        for (k, v) in other.added_params {
            self.added_params.entry(k).or_default().extend(v);
        }
        for (k, v) in other.exit_info {
            let e = self.exit_info.entry(k).or_default();
            if e.param_name.is_empty() {
                e.param_name = v.param_name;
            }
            e.targets.extend(v.targets);
        }
        self.synthetic_stmts.extend(other.synthetic_stmts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_target_lookup() {
        let mut m = Mapping::default();
        m.exit_info.insert(
            "p/q".into(),
            ExitInfo {
                param_name: "exitcond".into(),
                targets: BTreeMap::from([(1, ("p".into(), "9".into()))]),
            },
        );
        assert_eq!(m.exit_target("p/q", 0), None);
        assert_eq!(m.exit_target("p/q", 1), Some(&("p".into(), "9".into())));
        assert_eq!(m.exit_target("p/q", 2), None);
        assert_eq!(m.exit_target("unknown", 1), None);
    }

    #[test]
    fn merge_combines_phases() {
        let mut a = Mapping::default();
        a.add_param(
            "p",
            AddedParam {
                name: "x".into(),
                origin: ParamOrigin::Global("x".into()),
            },
        );
        let mut b = Mapping::default();
        b.add_param(
            "p",
            AddedParam {
                name: "exitcond".into(),
                origin: ParamOrigin::ExitCondition,
            },
        );
        b.add_synthetic(StmtId(99), "exit dispatch");
        a.merge(b);
        assert_eq!(a.added_params["p"].len(), 2);
        assert!(a.is_synthetic(StmtId(99)));
    }
}
