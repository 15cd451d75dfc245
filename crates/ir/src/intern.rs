//! Interned identifier strings.
//!
//! Function (and report/incident) names travel through the pipeline as
//! [`Symbol`]s — `u32` handles into a process-global interner — so the
//! hot path compares and hashes names as integers and only resolves the
//! text at display time. Interned strings are leaked: the interner is
//! append-only for the life of the process, which is what lets
//! [`Symbol::as_str`] hand out `&'static str` without reference counting.
//!
//! Determinism: two equal strings intern to the same id, always, from any
//! thread. Ids themselves depend on interning order, so nothing persisted
//! (cache keys, metrics JSON, traces) ever stores a raw id — persistence
//! always goes through the resolved text.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string: a cheap, `Copy`, integer-comparable name handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns `s`, returning its stable handle. Repeated calls with equal
    /// strings return equal symbols; distinct strings never collide.
    pub fn intern(s: &str) -> Symbol {
        let mut i = interner().lock().expect("interner poisoned");
        if let Some(&id) = i.map.get(s) {
            return Symbol(id);
        }
        let id = u32::try_from(i.strings.len()).expect("interner overflow");
        let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
        i.strings.push(leaked);
        i.map.insert(leaked, id);
        Symbol(id)
    }

    /// The symbol of `s` if it was ever interned: a lookup that, unlike
    /// [`Symbol::intern`], never adds (or leaks) a name.
    pub fn find(s: &str) -> Option<Symbol> {
        let i = interner().lock().expect("interner poisoned");
        i.map.get(s).map(|&id| Symbol(id))
    }

    /// The interned text. O(1); no allocation.
    pub fn as_str(self) -> &'static str {
        let i = interner().lock().expect("interner poisoned");
        i.strings[self.0 as usize]
    }

    /// The raw handle, for dense side tables. Not stable across processes.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The default symbol is the empty string (used by default-initialized
/// reports before a name is attached).
impl Default for Symbol {
    fn default() -> Symbol {
        Symbol::intern("")
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

/// String comparison resolves the text — convenient for tests and display
/// paths; hot-path code compares `Symbol == Symbol` (integer equality).
impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

// `Debug` prints the resolved text (with the id for disambiguation) so
// assertion failures stay readable.
impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}#{}", self.as_str(), self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_strings_intern_to_equal_symbols() {
        let a = Symbol::intern("main");
        let b = Symbol::intern("main");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "main");
        assert_ne!(Symbol::intern("other"), a);
        assert_eq!(Symbol::find("main"), Some(a));
        assert_eq!(Symbol::find("never interned anywhere"), None);
    }

    #[test]
    fn symbol_ids_are_stable_for_identical_modules_across_threads() {
        // The --jobs byte-identity suites cover output; this pins the
        // mechanism: interning the same set of names from many threads
        // concurrently yields one id per name, and re-interning from any
        // thread reproduces it.
        let names: Vec<String> = (0..64).map(|i| format!("fn_{i}")).collect();
        let first: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let names = names.clone();
                std::thread::spawn(move || {
                    names.iter().map(|n| Symbol::intern(n)).collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), first);
        }
    }

    #[test]
    fn hostile_names_round_trip_collision_free() {
        // The same adversarial corpus the JSON-escaping tests use:
        // quotes, backslashes, control characters, non-ASCII, embedded
        // NULs — every one must survive the round trip and none may
        // alias another.
        let corpus = [
            "a\"b\\c",
            "x\ny",
            "\u{1}",
            "tab\there",
            "quote\"inside",
            "back\\slash",
            "null\0byte",
            "ünïcódé·名前",
            "",
            " ",
            "weird\"name",
            "injected \"quote\"",
        ];
        let symbols: Vec<Symbol> = corpus.iter().map(|s| Symbol::intern(s)).collect();
        for (s, sym) in corpus.iter().zip(&symbols) {
            assert_eq!(sym.as_str(), *s);
        }
        for i in 0..symbols.len() {
            for j in 0..symbols.len() {
                assert_eq!(symbols[i] == symbols[j], i == j, "{i} vs {j}");
            }
        }
    }
}
