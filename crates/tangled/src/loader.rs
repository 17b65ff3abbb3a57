//! VMEM (`$readmemh`) image reading and writing.
//!
//! The paper's course infrastructure moved memory images around as Verilog
//! VMEM files (the bfloat16 reciprocal table "required a small VMEM file").
//! This module reads and writes the same format so images are exchangeable
//! with an HDL flow: whitespace-separated hex words, `@ADDR` address
//! records, and `//` comments.

use std::collections::BTreeMap;

/// A sparse memory image: address → word.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VmemImage {
    /// Word contents keyed by address.
    pub words: BTreeMap<u16, u16>,
}

/// VMEM parse error with 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmemError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for VmemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vmem line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for VmemError {}

impl VmemImage {
    /// Parse VMEM text.
    pub fn parse(text: &str) -> Result<VmemImage, VmemError> {
        let mut img = VmemImage::default();
        let mut addr: u32 = 0;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = match raw.find("//") {
                Some(i) => &raw[..i],
                None => raw,
            };
            for tok in line.split_whitespace() {
                if let Some(a) = tok.strip_prefix('@') {
                    addr = u32::from_str_radix(a, 16).map_err(|_| VmemError {
                        line: line_no,
                        msg: format!("bad address record `{tok}`"),
                    })?;
                    if addr > 0xFFFF {
                        return Err(VmemError {
                            line: line_no,
                            msg: format!("address {addr:#x} beyond 64K words"),
                        });
                    }
                    continue;
                }
                let w = u16::from_str_radix(tok, 16).map_err(|_| VmemError {
                    line: line_no,
                    msg: format!("bad hex word `{tok}`"),
                })?;
                if addr > 0xFFFF {
                    return Err(VmemError { line: line_no, msg: "image overruns 64K words".into() });
                }
                img.words.insert(addr as u16, w);
                addr += 1;
            }
        }
        Ok(img)
    }

    /// Build from a dense word slice at base address 0.
    pub fn from_words(words: &[u16]) -> VmemImage {
        VmemImage {
            words: words.iter().enumerate().map(|(i, &w)| (i as u16, w)).collect(),
        }
    }

    /// Render as VMEM text (address records only where gaps occur, eight
    /// words per line).
    pub fn render(&self) -> String {
        let mut out = String::from("// Tangled/Qat memory image\n");
        let mut expected: Option<u16> = None;
        let mut col = 0;
        for (&a, &w) in &self.words {
            if expected != Some(a) {
                if col != 0 {
                    out.push('\n');
                }
                out.push_str(&format!("@{a:04x}\n"));
                col = 0;
            }
            out.push_str(&format!("{w:04x}"));
            col += 1;
            if col == 8 {
                out.push('\n');
                col = 0;
            } else {
                out.push(' ');
            }
            expected = Some(a.wrapping_add(1));
        }
        if col != 0 {
            out.push('\n');
        }
        out
    }

    /// Apply to a machine's memory.
    pub fn load_into(&self, machine: &mut crate::machine::Machine) {
        for (&a, &w) in &self.words {
            machine.mem[a as usize] = w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};

    #[test]
    fn parse_basic_words_and_comments() {
        let img = VmemImage::parse("// header\n1234 abcd\nFFFF // trailing\n").unwrap();
        assert_eq!(img.words[&0], 0x1234);
        assert_eq!(img.words[&1], 0xABCD);
        assert_eq!(img.words[&2], 0xFFFF);
    }

    #[test]
    fn address_records() {
        let img = VmemImage::parse("@0010\n1111 2222\n@8000\n3333\n").unwrap();
        assert_eq!(img.words[&0x10], 0x1111);
        assert_eq!(img.words[&0x11], 0x2222);
        assert_eq!(img.words[&0x8000], 0x3333);
        assert_eq!(img.words.len(), 3);
    }

    #[test]
    fn errors_carry_lines() {
        let e = VmemImage::parse("1234\nzzzz\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("zzzz"));
        let e = VmemImage::parse("@zzzz\n").unwrap_err();
        assert!(e.msg.contains("address"));
        let e = VmemImage::parse("@10000\n").unwrap_err();
        assert!(e.msg.contains("64K"));
    }

    proptest::proptest! {
        #[test]
        fn parse_never_panics_on_garbage(lines in proptest::collection::vec("[ -~]{0,30}", 0..10)) {
            let _ = VmemImage::parse(&lines.join("\n")); // any Result is fine; panics are not
        }
    }

    #[test]
    fn roundtrip_render_parse() {
        let mut img = VmemImage::from_words(&[1, 2, 3, 0xBEEF]);
        img.words.insert(0x4000, 0xAAAA);
        img.words.insert(0x4001, 0xBBBB);
        let text = img.render();
        let back = VmemImage::parse(&text).unwrap();
        assert_eq!(back, img);
        assert!(text.contains("@4000"));
    }

    #[test]
    fn load_and_execute_a_vmem_program() {
        // Assemble, convert to VMEM, reload, run: identical behaviour.
        let asm = tangled_asm::assemble_ok("lex $1,7\nadd $1,$1\nsys\n");
        let vmem = VmemImage::from_words(&asm.words).render();
        let parsed = VmemImage::parse(&vmem).unwrap();
        let mut m = Machine::new(MachineConfig::default());
        parsed.load_into(&mut m);
        m.run().unwrap();
        assert_eq!(m.regs[1], 14);
    }
}
