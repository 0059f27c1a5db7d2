//! The FTL registry: one enum naming every FTL configuration the
//! experiments, benchmarks, CLIs and test matrices build.

use serde::{Deserialize, Serialize};

use super::{Cdftl, Dftl, Ftl, LearnedFtl, OptimalFtl, Sftl, TpFtl, TpftlConfig};
use crate::{Result, SsdConfig};

/// Which FTL to construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FtlKind {
    /// DFTL baseline.
    Dftl,
    /// Complete TPFTL (`rsbc`).
    Tpftl,
    /// A TPFTL ablation configuration (flags as in Figures 7/8).
    TpftlVariant {
        /// Technique monogram: subset of `rsbc` (empty = bare two-level).
        r: bool,
        /// Selective prefetching.
        s: bool,
        /// Batch-update replacement.
        b: bool,
        /// Clean-first replacement.
        c: bool,
    },
    /// S-FTL baseline.
    Sftl,
    /// CDFTL baseline (the paper implements but does not plot it).
    Cdftl,
    /// Optimal page-level FTL (full table in RAM).
    Optimal,
    /// LearnedFTL (extension): piecewise-linear learned mapping with
    /// OOB-validated predictions and a demand-paged fallback.
    Learned,
}

/// Every fixed-configuration kind with its command-line name and its
/// display label (what the built FTL's [`Ftl::name`] returns).
const NAMED: [(FtlKind, &str, &str); 6] = [
    (FtlKind::Dftl, "dftl", "DFTL"),
    (FtlKind::Tpftl, "tpftl", "TPFTL(rsbc)"),
    (FtlKind::Sftl, "sftl", "S-FTL"),
    (FtlKind::Cdftl, "cdftl", "CDFTL"),
    (FtlKind::Optimal, "optimal", "Optimal"),
    (FtlKind::Learned, "learned", "LearnedFTL(e4)"),
];

impl FtlKind {
    /// The paper's Figure 6 lineup.
    pub const FIG6: [FtlKind; 4] = [
        FtlKind::Dftl,
        FtlKind::Tpftl,
        FtlKind::Sftl,
        FtlKind::Optimal,
    ];

    /// The FTLs that persist their mapping table in translation pages —
    /// the ones crash recovery, the durability sweeps and the cached-mapping
    /// benchmarks apply to (Optimal keeps its table in RAM only).
    pub const PERSISTING: [FtlKind; 5] = [
        FtlKind::Dftl,
        FtlKind::Cdftl,
        FtlKind::Sftl,
        FtlKind::Tpftl,
        FtlKind::Learned,
    ];

    /// The command-line names of the fixed-configuration kinds, in
    /// registry order (`tpftl:FLAGS` names the ablation variants).
    pub fn cli_names() -> impl Iterator<Item = &'static str> {
        NAMED.iter().map(|&(_, cli, _)| cli)
    }

    /// TPFTL ablation variant from a flag monogram.
    pub fn variant(flags: &str) -> Self {
        FtlKind::TpftlVariant {
            r: flags.contains('r'),
            s: flags.contains('s'),
            b: flags.contains('b'),
            c: flags.contains('c'),
        }
    }

    /// The display label — exactly what the built FTL's [`Ftl::name`]
    /// returns — without building anything.
    pub fn label(&self) -> String {
        match *self {
            FtlKind::TpftlVariant { r, s, b, c } => {
                format!("TPFTL({})", variant_config(r, s, b, c).flags())
            }
            _ => NAMED
                .iter()
                .find(|(kind, ..)| kind == self)
                .map(|&(_, _, label)| label.to_string())
                .expect("every fixed-configuration kind is in NAMED"),
        }
    }

    /// Parses a command-line FTL name (`dftl`, `tpftl`, `tpftl:FLAGS` with
    /// FLAGS a subset of `rsbc` or `-` for the bare variant, `sftl`,
    /// `cdftl`, `optimal`, `learned`) or a display
    /// [`label`](Self::label); `None` for anything else.
    pub fn parse(name: &str) -> Option<Self> {
        if let Some(&(kind, ..)) = NAMED
            .iter()
            .find(|&&(_, cli, label)| name == cli || name == label)
        {
            return Some(kind);
        }
        let flags = name
            .strip_prefix("tpftl:")
            .map(|f| if f == "-" { "" } else { f })
            .or_else(|| {
                let f = name.strip_prefix("TPFTL(")?.strip_suffix(')')?;
                Some(if f == "–" { "" } else { f })
            })?;
        flags
            .chars()
            .all(|ch| "rsbc".contains(ch))
            .then(|| Self::variant(flags))
    }

    /// Builds the FTL for `config`.
    pub fn build(&self, config: &SsdConfig) -> Result<Box<dyn Ftl + Send>> {
        Ok(match *self {
            FtlKind::Dftl => Box::new(Dftl::new(config)?),
            FtlKind::Tpftl => Box::new(TpFtl::new(config, TpftlConfig::full())?),
            FtlKind::TpftlVariant { r, s, b, c } => {
                Box::new(TpFtl::new(config, variant_config(r, s, b, c))?)
            }
            FtlKind::Sftl => Box::new(Sftl::new(config)?),
            FtlKind::Cdftl => Box::new(Cdftl::new(config)?),
            FtlKind::Optimal => Box::new(OptimalFtl::new(config)),
            FtlKind::Learned => Box::new(LearnedFtl::new(config)?),
        })
    }
}

fn variant_config(r: bool, s: bool, b: bool, c: bool) -> TpftlConfig {
    TpftlConfig {
        request_prefetch: r,
        selective_prefetch: s,
        batch_update: b,
        clean_first: c,
        ..TpftlConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_name_the_built_ftl_and_parse_back() {
        // S-FTL/CDFTL need a whole translation page of cache plus slack.
        let mut config = SsdConfig::paper_default(16 << 20);
        config.cache_bytes = config.gtd_bytes() + 10 * 1024;
        let variants = ["", "b", "rs", "bc", "rsb"].map(FtlKind::variant);
        for kind in NAMED.iter().map(|&(kind, ..)| kind).chain(variants) {
            let ftl = kind.build(&config).unwrap();
            assert_eq!(ftl.name(), kind.label());
            assert_eq!(FtlKind::parse(&kind.label()), Some(kind), "{kind:?}");
            // A named kind that writes translation pages is swept for crashes.
            if !matches!(kind, FtlKind::TpftlVariant { .. }) {
                let persisting = FtlKind::PERSISTING.contains(&kind);
                assert_eq!(ftl.uses_translation_pages(), persisting, "{kind:?}");
            }
        }
    }

    #[test]
    fn parse_accepts_exactly_the_cli_names() {
        for (name, kind) in [
            ("dftl", FtlKind::Dftl),
            ("tpftl", FtlKind::Tpftl),
            ("tpftl:bc", FtlKind::variant("bc")),
            ("tpftl:-", FtlKind::variant("")),
            ("tpftl:", FtlKind::variant("")),
            ("sftl", FtlKind::Sftl),
            ("cdftl", FtlKind::Cdftl),
            ("optimal", FtlKind::Optimal),
            ("learned", FtlKind::Learned),
        ] {
            assert_eq!(FtlKind::parse(name), Some(kind), "{name}");
        }
        for bad in [
            "",
            "DFTL ",
            "Dftl",
            "nvme",
            "tpftl:x",
            "tpftl:rsbcz",
            "TPFTL(q)",
            "fast",
            "blocklevel",
            "zftl",
            "ZFTL(8)",
        ] {
            assert_eq!(FtlKind::parse(bad), None, "{bad:?}");
        }
    }
}
