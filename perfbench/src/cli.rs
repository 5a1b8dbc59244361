//! Command line: four flags, each checked. Anything else is refused with the
//! usage text, so a typo can never run a default configuration in its place.

pub const USAGE: &str = "usage: perfbench --workload <point-rw|range-conflict|wire-durable> \
[--seed <u64>] [--seconds <1..=600>] [--trace <0|1>]

  --workload  which workload to run (required)
  --seed      seed the workload's inputs are made from (default 1)
  --seconds   minimum measuring time; whole rounds run until it is reached (default 10)
  --trace     0: end-to-end metrics, untraced; 1: per-layer metrics from traced rounds
              alternated with untraced ones (default 0)";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointRw,
    RangeConflict,
    WireDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PointRw,
        Workload::RangeConflict,
        Workload::WireDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRw => "point-rw",
            Workload::RangeConflict => "range-conflict",
            Workload::WireDurable => "wire-durable",
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Parse the arguments after the program name. `Ok(None)` asks for the
/// usage text (`--help`).
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        if slot.is_some() {
            return Err(format!("{flag} given twice"));
        }
        let value = match inline {
            Some(v) => v,
            None => it.next().ok_or_else(|| format!("{flag} needs a value"))?,
        };
        *slot = Some(value);
    }
    let workload = workload.ok_or("--workload is required")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |flag: &str, v: Option<String>, default: u64| -> Result<u64, String> {
        v.map_or(Ok(default), |v| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {v:?}"))
        })
    };
    let seed = number("--seed", seed, 1)?;
    let seconds = number("--seconds", seconds, 10)?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, not {seconds}"));
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace takes 0 or 1, not {v:?}")),
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Option<Args>, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn accepts_the_four_flags_in_both_spellings() {
        let a = p(&[
            "--workload",
            "range-conflict",
            "--seed=9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::RangeConflict,
                seed: 9,
                seconds: 3,
                trace: true
            }
        );
        let d = p(&["--workload=point-rw"]).unwrap().unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (1, 10, false));
        assert_eq!(p(&["--help"]), Ok(None));
    }

    #[test]
    fn rejects_anything_else() {
        for bad in [
            &["--workload", "point-rw", "--partitons", "1"][..],
            &["--workload", "pointrw"],
            &["--seed", "1"],
            &["--workload", "point-rw", "--seed", "x"],
            &["--workload", "point-rw", "--seed"],
            &["--workload", "point-rw", "--trace", "2"],
            &["--workload", "point-rw", "--seconds", "0"],
            &["--workload", "point-rw", "--workload", "wire-durable"],
            &["point-rw"],
        ] {
            assert!(p(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
