//! The command-line reader the workspace's binaries share.
//!
//! Each binary matches its own flag names; [`Flags`] supplies the steps
//! every such loop repeats (take the next argument, take a flag's value,
//! parse a number within a range) with one message per failure:
//! `--threads needs a value` and ``bad thread count `0` ``.
//! [`exit_usage`] ends the process for a command line a binary refused,
//! with exit status 2, which no binary gives for anything else, so a
//! script can tell a bad flag from a failed run.

use std::ops::RangeBounds;
use std::str::FromStr;

/// A command line, read front to back.
#[derive(Debug)]
pub struct Flags {
    args: std::vec::IntoIter<String>,
}

impl Flags {
    /// Reads `args`, which start after the program name.
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Self {
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
        }
    }

    /// The process's own command line, after the program name.
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// The next argument, while any is left.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The argument after `flag`: its value.
    ///
    /// # Errors
    ///
    /// `<flag> needs a value` when the command line ends at `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next_arg()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value of `flag` as a number within `range`; `what` names the
    /// number in the error.
    ///
    /// # Errors
    ///
    /// `<flag> needs a value` as for [`Flags::value`], and
    /// ``bad <what> `<value>` `` when the value does not parse or lies
    /// outside `range`.
    pub fn number<T: FromStr + PartialOrd>(
        &mut self,
        flag: &str,
        what: &str,
        range: impl RangeBounds<T>,
    ) -> Result<T, String> {
        let v = self.value(flag)?;
        in_range(&v, range).ok_or_else(|| format!("bad {what} `{v}`"))
    }
}

/// `v` as a number within `range`, for a flag whose error adds a hint
/// after the value, as in ``bad node count `9` (2..=8)``.
pub fn in_range<T: FromStr + PartialOrd>(v: &str, range: impl RangeBounds<T>) -> Option<T> {
    v.parse().ok().filter(|n| range.contains(n))
}

/// Ends the process for a command line its binary refused with `msg`:
/// `error: <msg>` and a blank line, then `usage`, on stderr, and exit 2.
/// An empty `msg` is a request for help: `usage` alone, and exit 0.
pub fn exit_usage(msg: &str, usage: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!("{usage}");
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &str) -> Flags {
        Flags::new(args.split_whitespace().map(String::from))
    }

    #[test]
    fn reads_values_and_numbers_with_one_message_per_failure() {
        let mut f = flags("--threads 4 --addr host:1 --threads 0 --seed x --queue");
        assert_eq!(f.next_arg().as_deref(), Some("--threads"));
        assert_eq!(f.number("--threads", "thread count", 1..), Ok(4usize));
        assert_eq!(f.next_arg().as_deref(), Some("--addr"));
        assert_eq!(f.value("--addr").as_deref(), Ok("host:1"));
        f.next_arg();
        assert_eq!(
            f.number::<usize>("--threads", "thread count", 1..),
            Err("bad thread count `0`".to_string())
        );
        f.next_arg();
        assert_eq!(
            f.number::<u64>("--seed", "seed", ..),
            Err("bad seed `x`".to_string())
        );
        f.next_arg();
        assert_eq!(
            f.number::<usize>("--queue", "queue depth", ..),
            Err("--queue needs a value".to_string())
        );
        assert_eq!(f.next_arg(), None);
        let mut nodes = flags("9 8");
        assert_eq!(
            nodes.number::<usize>("--nodes", "node count", 2..=8),
            Err("bad node count `9`".to_string())
        );
        assert_eq!(nodes.number("--nodes", "node count", 2..=8), Ok(8usize));
        assert_eq!(in_range::<usize>("60", 50..), Some(60));
        assert_eq!(in_range::<usize>("10", 50..), None);
        assert_eq!(in_range::<u64>("-1", ..), None);
    }
}
