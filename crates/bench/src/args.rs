//! The one command-line parser of the JSON-writing experiment binaries.
//!
//! Every binary takes `--flag value` pairs (and the bare `--smoke`) from
//! one vocabulary: `--homes --workers --horizon --capacity --repeats
//! --report --json --max-rss-mb --snapshot-every --smoke`.
//! [`Experiment`] records which of them each binary accepts and its
//! defaults. A command line outside that contract is an [`ArgError`],
//! which [`Args::from_env`] reports on one stderr line before exiting
//! with status 2.

use std::fmt;
use std::str::FromStr;

/// The experiment binaries that write a `BENCH_*.json` point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// `exp_engine`.
    Engine,
    /// `exp_faults`.
    Faults,
    /// `exp_fleet`.
    Fleet,
    /// `exp_onboard`.
    Onboard,
    /// `exp_ota`.
    Ota,
    /// `exp_recovery`.
    Recovery,
    /// `exp_scale`.
    Scale,
    /// `exp_stream`.
    Stream,
}

impl Experiment {
    /// The name in `exp_<name>` and in the default `BENCH_<name>.json`.
    fn name(self) -> &'static str {
        match self {
            Experiment::Engine => "engine",
            Experiment::Faults => "faults",
            Experiment::Fleet => "fleet",
            Experiment::Onboard => "onboard",
            Experiment::Ota => "ota",
            Experiment::Recovery => "recovery",
            Experiment::Scale => "scale",
            Experiment::Stream => "stream",
        }
    }

    /// The flags the binary accepts, space-separated; every other flag
    /// is rejected.
    fn flags(self) -> &'static str {
        match self {
            Experiment::Engine => "--json --smoke",
            Experiment::Faults => "--homes --workers --json",
            Experiment::Fleet => "--homes --workers --horizon --capacity --repeats --report --json",
            Experiment::Onboard => "--homes --workers --horizon --json",
            Experiment::Ota | Experiment::Stream => {
                "--homes --workers --horizon --snapshot-every --json"
            }
            Experiment::Recovery => "--homes --workers --horizon --repeats --json",
            Experiment::Scale => "--homes --workers --horizon --max-rss-mb --json",
        }
    }

    /// The arguments when no flag is given. Fields of flags the binary
    /// does not accept hold neutral values it never reads.
    fn defaults(self) -> Args {
        let (homes, workers, horizon_s, repeats) = match self {
            Experiment::Engine => (0, 0, 0, 1),
            Experiment::Faults => (48, 8, 0, 1),
            Experiment::Fleet => (1000, 8, 420, 1),
            Experiment::Onboard => (64, 8, 120, 1),
            Experiment::Ota => (64, 8, 420, 1),
            Experiment::Recovery => (32, 4, 420, 3),
            Experiment::Scale => (100_000, 8, 240, 1),
            Experiment::Stream => (48, 8, 420, 1),
        };
        Args {
            homes,
            workers,
            horizon_s,
            capacity: None,
            repeats,
            report: String::new(),
            json: format!("BENCH_{}.json", self.name()),
            max_rss_mb: 0,
            snapshot_every: None,
            smoke: false,
        }
    }

    /// The smallest `--homes` the binary accepts: `exp_scale`'s small
    /// tier is a tenth of the fleet and must not round to nothing.
    fn min_homes(self) -> usize {
        match self {
            Experiment::Scale => 100,
            _ => 0,
        }
    }
}

/// A parsed command line.
#[derive(Debug, PartialEq, Eq)]
pub struct Args {
    /// `--homes`.
    pub homes: usize,
    /// `--workers`.
    pub workers: usize,
    /// `--horizon`, in simulated seconds.
    pub horizon_s: u64,
    /// `--capacity`; `None` is an unbounded evidence bus.
    pub capacity: Option<usize>,
    /// `--repeats`, at least 1.
    pub repeats: usize,
    /// `--report`; empty skips the dump.
    pub report: String,
    /// `--json`.
    pub json: String,
    /// `--max-rss-mb`; 0 is no ceiling.
    pub max_rss_mb: u64,
    /// `--snapshot-every`; `None` takes no run snapshots.
    pub snapshot_every: Option<u64>,
    /// `--smoke`.
    pub smoke: bool,
}

/// Why a command line was rejected; each names the flag at fault.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A flag the binary does not accept.
    Unknown(String),
    /// A flag that takes a value came last.
    MissingValue(&'static str),
    /// A value that does not parse as the flag's non-negative integer.
    NotAnInteger(&'static str, String),
    /// An integer below the flag's floor.
    BelowMinimum(&'static str, usize),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Unknown(flag) => write!(f, "unknown flag {flag}"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::NotAnInteger(flag, value) => {
                write!(f, "{flag} takes a non-negative integer, not {value:?}")
            }
            ArgError::BelowMinimum(flag, min) => write!(f, "{flag} must be at least {min}"),
        }
    }
}

impl std::error::Error for ArgError {}

fn int<T: FromStr>(flag: &'static str, value: &str) -> Result<T, ArgError> {
    value
        .parse()
        .map_err(|_| ArgError::NotAnInteger(flag, value.to_string()))
}

impl Args {
    /// Parses `argv` (without the program name) against `experiment`'s
    /// contract.
    pub fn parse(
        experiment: Experiment,
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Args, ArgError> {
        let mut args = experiment.defaults();
        let mut argv = argv.into_iter();
        while let Some(given) = argv.next() {
            let Some(flag) = experiment.flags().split(' ').find(|&f| f == given) else {
                return Err(ArgError::Unknown(given));
            };
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = argv.next().ok_or(ArgError::MissingValue(flag))?;
            match flag {
                "--homes" => args.homes = int(flag, &value)?,
                "--workers" => args.workers = int(flag, &value)?,
                "--horizon" => args.horizon_s = int(flag, &value)?,
                "--capacity" => args.capacity = Some(int(flag, &value)?),
                "--repeats" => args.repeats = int(flag, &value)?,
                "--report" => args.report = value,
                "--json" => args.json = value,
                "--max-rss-mb" => args.max_rss_mb = int(flag, &value)?,
                "--snapshot-every" => args.snapshot_every = Some(int(flag, &value)?),
                other => unreachable!("{other} is accepted but has no field"),
            }
        }
        if args.repeats < 1 {
            return Err(ArgError::BelowMinimum("--repeats", 1));
        }
        if args.homes < experiment.min_homes() {
            return Err(ArgError::BelowMinimum("--homes", experiment.min_homes()));
        }
        Ok(args)
    }

    /// Parses the process's command line. On an [`ArgError`] it prints
    /// one line naming the error and the accepted flags to stderr and
    /// exits with status 2.
    pub fn from_env(experiment: Experiment) -> Args {
        let argv = std::env::args_os()
            .skip(1)
            .map(|a| a.to_string_lossy().into_owned());
        Args::parse(experiment, argv).unwrap_or_else(|e| {
            let (name, accepted) = (experiment.name(), experiment.flags());
            eprintln!("exp_{name}: {e} (accepted: {accepted})");
            std::process::exit(2)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Experiment; 8] = [
        Experiment::Engine,
        Experiment::Faults,
        Experiment::Fleet,
        Experiment::Onboard,
        Experiment::Ota,
        Experiment::Recovery,
        Experiment::Scale,
        Experiment::Stream,
    ];

    fn parse(experiment: Experiment, argv: &[&str]) -> Result<Args, ArgError> {
        Args::parse(experiment, argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn each_binary_keeps_its_defaults() {
        // (experiment, homes, workers, horizon_s, repeats)
        let expected = [
            (Experiment::Faults, 48, 8, None, 1),
            (Experiment::Fleet, 1000, 8, Some(420), 1),
            (Experiment::Onboard, 64, 8, Some(120), 1),
            (Experiment::Ota, 64, 8, Some(420), 1),
            (Experiment::Recovery, 32, 4, Some(420), 3),
            (Experiment::Scale, 100_000, 8, Some(240), 1),
            (Experiment::Stream, 48, 8, Some(420), 1),
        ];
        for (experiment, homes, workers, horizon_s, repeats) in expected {
            let args = parse(experiment, &[]).expect("defaults parse");
            assert_eq!(args.homes, homes, "{experiment:?}");
            assert_eq!(args.workers, workers, "{experiment:?}");
            if let Some(horizon_s) = horizon_s {
                assert_eq!(args.horizon_s, horizon_s, "{experiment:?}");
            }
            assert_eq!(args.repeats, repeats, "{experiment:?}");
        }
        for experiment in ALL {
            let args = parse(experiment, &[]).expect("defaults parse");
            assert_eq!(args.json, format!("BENCH_{}.json", experiment.name()));
            assert_eq!(args.capacity, None);
            assert_eq!(args.report, "");
            assert_eq!(args.max_rss_mb, 0);
            assert_eq!(args.snapshot_every, None);
            assert!(!args.smoke);
        }
    }

    #[test]
    fn accepted_flags_set_their_fields() {
        let fleet = parse(
            Experiment::Fleet,
            &[
                "--homes",
                "16",
                "--workers",
                "2",
                "--horizon",
                "60",
                "--capacity",
                "64",
                "--repeats",
                "5",
                "--report",
                "r.json",
                "--json",
                "b.json",
            ],
        )
        .expect("fleet flags");
        assert_eq!(
            (
                fleet.homes,
                fleet.workers,
                fleet.horizon_s,
                fleet.capacity,
                fleet.repeats
            ),
            (16, 2, 60, Some(64), 5)
        );
        assert_eq!(
            (fleet.report.as_str(), fleet.json.as_str()),
            ("r.json", "b.json")
        );
        let scale = parse(Experiment::Scale, &["--max-rss-mb", "512"]).expect("scale");
        assert_eq!(scale.max_rss_mb, 512);
        let ota = parse(Experiment::Ota, &["--snapshot-every", "3"]).expect("ota");
        assert_eq!(ota.snapshot_every, Some(3));
        let engine = parse(Experiment::Engine, &["--smoke", "--json", "e.json"]).expect("engine");
        assert!(engine.smoke);
        assert_eq!(engine.json, "e.json");
    }

    #[test]
    fn errors_name_the_flag() {
        let cases: [(&[&str], ArgError, &str); 4] = [
            (&["--bogus"], ArgError::Unknown("--bogus".into()), "--bogus"),
            (&["--homes"], ArgError::MissingValue("--homes"), "--homes"),
            (
                &["--workers", "four"],
                ArgError::NotAnInteger("--workers", "four".into()),
                "--workers",
            ),
            (
                &["--homes", "-3"],
                ArgError::NotAnInteger("--homes", "-3".into()),
                "--homes",
            ),
        ];
        for (argv, error, named) in cases {
            let got = parse(Experiment::Faults, argv).expect_err("rejected");
            assert_eq!(got, error);
            assert!(got.to_string().contains(named), "{got}");
        }
    }

    #[test]
    fn range_floors_are_enforced() {
        for experiment in [Experiment::Fleet, Experiment::Recovery] {
            assert_eq!(
                parse(experiment, &["--repeats", "0"]),
                Err(ArgError::BelowMinimum("--repeats", 1))
            );
        }
        assert_eq!(
            parse(Experiment::Scale, &["--homes", "99"]),
            Err(ArgError::BelowMinimum("--homes", 100))
        );
        assert!(parse(Experiment::Scale, &["--homes", "100"]).is_ok());
        assert!(parse(Experiment::Faults, &["--homes", "1"]).is_ok());
    }

    #[test]
    fn a_flag_another_binary_accepts_is_rejected() {
        let cases = [
            (Experiment::Faults, "--horizon", "60"),
            (Experiment::Fleet, "--snapshot-every", "1"),
            (Experiment::Onboard, "--repeats", "3"),
            (Experiment::Scale, "--capacity", "64"),
            (Experiment::Engine, "--homes", "8"),
        ];
        for (experiment, flag, value) in cases {
            assert_eq!(
                parse(experiment, &[flag, value]),
                Err(ArgError::Unknown(flag.into())),
                "{experiment:?}"
            );
        }
        assert_eq!(
            parse(Experiment::Faults, &["--smoke"]),
            Err(ArgError::Unknown("--smoke".into()))
        );
    }
}
