//! Per-mutant localization reports and campaign-level aggregation.
//!
//! One [`LocalizationReport`] records what happened to one mutant:
//! whether it compiled, whether it was killed, where the debugger placed
//! the fault, and how many oracle questions that took with and without
//! slicing. A [`CampaignSummary`] aggregates the reports into the
//! paper-facing numbers: exact-unit localization accuracy and mean
//! questions saved by slicing.

use crate::operators::MutOp;
use gadt_obs::{Journal, Recorder};

/// What became of one mutant after the full pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutantStatus {
    /// The mutant failed to compile or transform — it never ran.
    Stillborn {
        /// The compile/transform error message.
        reason: String,
    },
    /// The mutant ran into a runtime error or exhausted its step budget.
    Crashed {
        /// The runtime error message.
        error: String,
    },
    /// The mutant behaved identically to the golden program (output and
    /// execution tree) — not killed, nothing to localize.
    Equivalent,
    /// The mutant's execution diverged internally (its execution tree
    /// differs from the golden one), but the program output and every
    /// top-level invocation's In/Out interface matched the golden run.
    /// There is no observable symptom, so algorithmic debugging — whose
    /// premise is a user-visible wrong result — has no entry point.
    Masked,
    /// The mutant was killed and the debugger localized a fault.
    Localized {
        /// The unit the debugger blamed (loop units reported as their
        /// owning procedure).
        unit: String,
        /// Whether the blamed unit is the mutated unit.
        exact: bool,
        /// Oracle questions asked with slicing enabled.
        questions_with_slicing: usize,
        /// Oracle questions asked with slicing disabled.
        questions_without_slicing: usize,
        /// Tree prunes performed during the slicing-enabled session.
        slices_taken: usize,
        /// Total relevant trace events across those slices.
        slice_events: usize,
        /// Total distinct statements across those slices.
        slice_stmts: usize,
        /// Total dynamic calls kept across those slices.
        slice_calls: usize,
    },
}

impl MutantStatus {
    /// Encodes the status as the opaque verdict payload `gadt-store`
    /// persists for campaign reuse. Deterministic; round-trips through
    /// [`MutantStatus::from_json`].
    pub fn to_json(&self) -> gadt_store::Json {
        use gadt_store::{obj, Json};
        match self {
            MutantStatus::Stillborn { reason } => obj(vec![
                ("s", Json::Str("stillborn".into())),
                ("reason", Json::Str(reason.clone())),
            ]),
            MutantStatus::Crashed { error } => obj(vec![
                ("s", Json::Str("crashed".into())),
                ("error", Json::Str(error.clone())),
            ]),
            MutantStatus::Equivalent => obj(vec![("s", Json::Str("equivalent".into()))]),
            MutantStatus::Masked => obj(vec![("s", Json::Str("masked".into()))]),
            MutantStatus::Localized {
                unit,
                exact,
                questions_with_slicing,
                questions_without_slicing,
                slices_taken,
                slice_events,
                slice_stmts,
                slice_calls,
            } => obj(vec![
                ("s", Json::Str("localized".into())),
                ("unit", Json::Str(unit.clone())),
                ("exact", Json::Bool(*exact)),
                ("qw", Json::Int(*questions_with_slicing as i64)),
                ("qwo", Json::Int(*questions_without_slicing as i64)),
                ("slices", Json::Int(*slices_taken as i64)),
                ("ev", Json::Int(*slice_events as i64)),
                ("st", Json::Int(*slice_stmts as i64)),
                ("ca", Json::Int(*slice_calls as i64)),
            ]),
        }
    }

    /// Decodes a stored verdict payload. `None` on an unknown or
    /// malformed shape — the campaign then simply re-judges the mutant.
    pub fn from_json(j: &gadt_store::Json) -> Option<MutantStatus> {
        let int = |field: &str| -> Option<usize> { usize::try_from(j.get(field)?.as_int()?).ok() };
        match j.get("s")?.as_str()? {
            "stillborn" => Some(MutantStatus::Stillborn {
                reason: j.get("reason")?.as_str()?.to_string(),
            }),
            "crashed" => Some(MutantStatus::Crashed {
                error: j.get("error")?.as_str()?.to_string(),
            }),
            "equivalent" => Some(MutantStatus::Equivalent),
            "masked" => Some(MutantStatus::Masked),
            "localized" => Some(MutantStatus::Localized {
                unit: j.get("unit")?.as_str()?.to_string(),
                exact: j.get("exact")?.as_bool()?,
                questions_with_slicing: int("qw")?,
                questions_without_slicing: int("qwo")?,
                slices_taken: int("slices")?,
                slice_events: int("ev")?,
                slice_stmts: int("st")?,
                slice_calls: int("ca")?,
            }),
            _ => None,
        }
    }
}

/// The conformance record of one mutant.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizationReport {
    /// Name of the subject program.
    pub program: String,
    /// The operator that planted the fault.
    pub op: MutOp,
    /// The operator's site ordinal (see
    /// [`crate::operators::MutationSite`]).
    pub ordinal: u32,
    /// The unit owning the mutated statement.
    pub mutated_unit: String,
    /// Human-readable fault description.
    pub description: String,
    /// The pipeline outcome.
    pub status: MutantStatus,
    /// The mutant's observability journal: transform/trace/debug spans,
    /// per-question events of both debug sessions (under the
    /// `with_slicing.` / `without_slicing.` prefixes), and counters.
    /// Wall-clock lives only in the journal's time fields, which its
    /// fingerprint excludes — so campaign fingerprints stay thread-count
    /// independent.
    pub journal: Journal,
}

impl LocalizationReport {
    /// One deterministic line describing this mutant — everything except
    /// the journal. Concatenated lines form the campaign fingerprint
    /// compared across thread counts.
    pub fn render_line(&self) -> String {
        let status = match &self.status {
            MutantStatus::Stillborn { reason } => format!("stillborn: {reason}"),
            MutantStatus::Crashed { error } => format!("crashed: {error}"),
            MutantStatus::Equivalent => "equivalent".to_string(),
            MutantStatus::Masked => "masked (no observable symptom)".to_string(),
            MutantStatus::Localized {
                unit,
                exact,
                questions_with_slicing,
                questions_without_slicing,
                slices_taken,
                slice_events,
                slice_stmts,
                slice_calls,
            } => format!(
                "localized in {unit} ({}) q={questions_with_slicing}/{questions_without_slicing} \
                 slices={slices_taken} size={slice_events}ev/{slice_stmts}st/{slice_calls}ca",
                if *exact { "exact" } else { "MISS" }
            ),
        };
        format!(
            "{} {}#{} in {} [{}] -> {status}",
            self.program, self.op, self.ordinal, self.mutated_unit, self.description
        )
    }
}

/// Aggregated results of one mutation campaign.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// One report per mutant, in campaign order.
    pub reports: Vec<LocalizationReport>,
}

impl CampaignSummary {
    /// Total mutants attempted.
    pub fn total(&self) -> usize {
        self.reports.len()
    }

    fn count(&self, f: impl Fn(&MutantStatus) -> bool) -> usize {
        self.reports.iter().filter(|r| f(&r.status)).count()
    }

    /// Mutants that never ran (compile/transform failure).
    pub fn stillborn(&self) -> usize {
        self.count(|s| matches!(s, MutantStatus::Stillborn { .. }))
    }

    /// Mutants that crashed or exhausted their step budget.
    pub fn crashed(&self) -> usize {
        self.count(|s| matches!(s, MutantStatus::Crashed { .. }))
    }

    /// Mutants indistinguishable from the golden program.
    pub fn equivalent(&self) -> usize {
        self.count(|s| matches!(s, MutantStatus::Equivalent))
    }

    /// Mutants that diverged internally without an observable symptom.
    pub fn masked(&self) -> usize {
        self.count(|s| matches!(s, MutantStatus::Masked))
    }

    /// Killed mutants the debugger ran on.
    pub fn localized(&self) -> usize {
        self.count(|s| matches!(s, MutantStatus::Localized { .. }))
    }

    /// Localized mutants blamed on exactly the mutated unit.
    pub fn exact(&self) -> usize {
        self.count(|s| matches!(s, MutantStatus::Localized { exact: true, .. }))
    }

    /// Exact-unit localization accuracy over localized mutants, in
    /// `[0, 1]`; `None` when nothing was localized.
    pub fn accuracy(&self) -> Option<f64> {
        let n = self.localized();
        (n > 0).then(|| self.exact() as f64 / n as f64)
    }

    /// Localized mutants where slicing asked strictly fewer questions.
    pub fn strictly_fewer(&self) -> usize {
        self.count(|s| {
            matches!(s, MutantStatus::Localized {
                questions_with_slicing: w,
                questions_without_slicing: wo,
                ..
            } if w < wo)
        })
    }

    fn mean_questions(&self, with_slicing: bool) -> Option<f64> {
        let qs: Vec<usize> = self
            .reports
            .iter()
            .filter_map(|r| match &r.status {
                MutantStatus::Localized {
                    questions_with_slicing,
                    questions_without_slicing,
                    ..
                } => Some(if with_slicing {
                    *questions_with_slicing
                } else {
                    *questions_without_slicing
                }),
                _ => None,
            })
            .collect();
        (!qs.is_empty()).then(|| qs.iter().sum::<usize>() as f64 / qs.len() as f64)
    }

    /// Mean questions per localized mutant, slicing enabled.
    pub fn mean_questions_with_slicing(&self) -> Option<f64> {
        self.mean_questions(true)
    }

    /// Mean questions per localized mutant, slicing disabled.
    pub fn mean_questions_without_slicing(&self) -> Option<f64> {
        self.mean_questions(false)
    }

    /// The campaign-level journal: every mutant's journal merged in
    /// campaign order, plus the roll-up counters `campaign.mutants`,
    /// `campaign.stillborn`, `campaign.crashed`, `campaign.equivalent`,
    /// `campaign.masked`, `campaign.localized` and `campaign.exact`.
    /// Its [`Journal::fingerprint`] is byte-identical across thread
    /// counts for the same seed.
    pub fn journal(&self) -> Journal {
        let mut rec = Recorder::untimed();
        for r in &self.reports {
            rec.adopt(r.journal.clone(), None);
        }
        rec.add("campaign.mutants", self.total() as u64);
        rec.add("campaign.stillborn", self.stillborn() as u64);
        rec.add("campaign.crashed", self.crashed() as u64);
        rec.add("campaign.equivalent", self.equivalent() as u64);
        rec.add("campaign.masked", self.masked() as u64);
        rec.add("campaign.localized", self.localized() as u64);
        rec.add("campaign.exact", self.exact() as u64);
        rec.finish()
    }

    /// The deterministic campaign fingerprint: every report's
    /// [`LocalizationReport::render_line`], newline-joined. Byte-identical
    /// across thread counts for the same seed.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            out.push_str(&r.render_line());
            out.push('\n');
        }
        out
    }

    /// The localization-accuracy distribution as a deterministic JSON
    /// payload fit for `gadt-store` persistence: campaign-level status
    /// counts, exact-unit accuracy, and the histogram of
    /// slicing-enabled oracle-question counts over localized mutants
    /// (sorted `[questions, mutants]` pairs). Identical across thread
    /// counts for the same campaign seed.
    pub fn distribution_json(&self) -> gadt_store::Json {
        use gadt_store::{obj, Json};
        let mut hist: std::collections::BTreeMap<usize, i64> = std::collections::BTreeMap::new();
        for r in &self.reports {
            if let MutantStatus::Localized {
                questions_with_slicing,
                ..
            } = &r.status
            {
                *hist.entry(*questions_with_slicing).or_insert(0) += 1;
            }
        }
        let hist_json = Json::Array(
            hist.into_iter()
                .map(|(q, n)| Json::Array(vec![Json::Int(q as i64), Json::Int(n)]))
                .collect(),
        );
        obj(vec![
            ("mutants", Json::Int(self.total() as i64)),
            ("stillborn", Json::Int(self.stillborn() as i64)),
            ("crashed", Json::Int(self.crashed() as i64)),
            ("equivalent", Json::Int(self.equivalent() as i64)),
            ("masked", Json::Int(self.masked() as i64)),
            ("localized", Json::Int(self.localized() as i64)),
            ("exact", Json::Int(self.exact() as i64)),
            (
                "accuracy",
                match self.accuracy() {
                    Some(a) => Json::Real(a),
                    None => Json::Null,
                },
            ),
            ("questions_hist", hist_json),
        ])
    }

    /// Human-readable campaign summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "mutants: {} total, {} stillborn, {} crashed, {} equivalent, {} masked, {} localized\n",
            self.total(),
            self.stillborn(),
            self.crashed(),
            self.equivalent(),
            self.masked(),
            self.localized()
        ));
        if let Some(acc) = self.accuracy() {
            out.push_str(&format!(
                "exact-unit localization: {}/{} ({:.1}%)\n",
                self.exact(),
                self.localized(),
                acc * 100.0
            ));
        }
        if let (Some(w), Some(wo)) = (
            self.mean_questions_with_slicing(),
            self.mean_questions_without_slicing(),
        ) {
            out.push_str(&format!(
                "questions per mutant: {w:.2} with slicing, {wo:.2} without \
                 (strictly fewer on {}/{})\n",
                self.strictly_fewer(),
                self.localized()
            ));
        }
        out
    }
}
