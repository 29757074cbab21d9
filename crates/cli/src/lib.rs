#![forbid(unsafe_code)]
//! Library backing the `trace-tools` command-line binary.
//!
//! Every subcommand is implemented as a pure function over parsed options
//! that returns the text it would print, so the whole tool is unit-testable
//! without spawning processes:
//!
//! * [`cli`] — the tiny argument parser (`subcommand --flag value …`).
//! * [`io`] — load/store helpers that pick a v2 container or the text
//!   format from the file extension.
//! * [`commands`] — the subcommand implementations: `list`, `generate`,
//!   `reduce`, `reconstruct`, `convert`, `analyze`, `report`.

#![warn(missing_docs)]

pub mod cli;
pub mod commands;
pub mod io;

pub use cli::{parse_args, Invocation};
pub use commands::run;
