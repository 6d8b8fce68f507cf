package ir

// The parser as it stood before the allocation-lean rewrite in parse.go,
// kept verbatim (only its identifiers renamed) as the oracle the new one is
// checked against: FuzzParseVerify requires both to accept the same inputs,
// reject the rest with the same error text, and build functions with the
// same printed and positional bytes. Helpers the rewrite kept unchanged
// (parseMnemonic, parseType, parseBlockRef, canonicalRegNumber) are shared.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// referenceParse reads the textual .nir format produced by Print and reconstructs a
// module. The format is line oriented:
//
//	func @name(i64, f64) {
//	entry:
//	  r3 = const.i64 42
//	  r4 = add r1, r3
//	  condbr r4, %body, %exit
//	body:
//	  ...
//	}
//
// Comments run from ';' to end of line. Register names are arbitrary
// identifiers. A canonical name of the form r<N> (as the printer emits)
// keeps register number N, so Parse(Print(f)) reproduces f's register
// numbering exactly; ReadFunction decodes AppendFunction's bytes to that
// same function. Any other identifier is assigned the lowest free number
// in definition order, parameters first.
func referenceParse(src string) (*Module, error) {
	p := &refParser{lines: strings.Split(src, "\n")}
	m := &Module{}
	var pendingCalls []refPendingCall
	for {
		p.skipBlank()
		if p.eof() {
			break
		}
		f, calls, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		if m.Func(f.Name) != nil {
			return nil, fmt.Errorf("ir: duplicate function @%s", f.Name)
		}
		m.Add(f)
		pendingCalls = append(pendingCalls, calls...)
	}
	// Resolve call targets module-wide (forward references allowed), then
	// verify every function.
	for _, pc := range pendingCalls {
		callee := m.Func(pc.name)
		if callee == nil {
			return nil, fmt.Errorf("ir: line %d: call to undefined function @%s", pc.line+1, pc.name)
		}
		pc.instr.Callee = callee
	}
	for _, f := range m.Funcs {
		if err := Verify(f); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// refPendingCall records a call instruction awaiting module-level resolution.
type refPendingCall struct {
	instr *Instr
	name  string
	line  int
}

type refParser struct {
	lines []string
	pos   int
}

func (p *refParser) eof() bool { return p.pos >= len(p.lines) }

func (p *refParser) errf(format string, args ...any) error {
	return fmt.Errorf("ir: line %d: %s", p.pos+1, fmt.Sprintf(format, args...))
}

func (p *refParser) cur() string {
	line := p.lines[p.pos]
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

func (p *refParser) skipBlank() {
	for !p.eof() && p.cur() == "" {
		p.pos++
	}
}

// refRawInstr is an instruction parsed into names, before register resolution.
type refRawInstr struct {
	line     int
	dst      string
	mnemonic string
	args     []string // register names
	imm      int64
	blocks   []string // branch targets / phi incoming blocks
	callee   string   // called function name for call instructions
}

func (p *refParser) parseFunc() (*Function, []refPendingCall, error) {
	header := p.cur()
	if !strings.HasPrefix(header, "func @") {
		return nil, nil, p.errf("expected 'func @name(...)', got %q", header)
	}
	open := strings.IndexByte(header, '(')
	closeP := strings.LastIndexByte(header, ')')
	if open < 0 || closeP < open || !strings.HasSuffix(header, "{") {
		return nil, nil, p.errf("malformed function header %q", header)
	}
	name := strings.TrimSpace(header[len("func @"):open])
	if name == "" {
		return nil, nil, p.errf("missing function name")
	}
	var params []Type
	paramSrc := strings.TrimSpace(header[open+1 : closeP])
	if paramSrc != "" {
		for _, ps := range strings.Split(paramSrc, ",") {
			t, err := parseType(strings.TrimSpace(ps))
			if err != nil {
				return nil, nil, p.errf("%v", err)
			}
			params = append(params, t)
		}
	}
	p.pos++

	// Collect blocks of raw instructions.
	type rawBlock struct {
		name   string
		instrs []refRawInstr
	}
	var blocks []*rawBlock
	var cur *rawBlock
	for {
		p.skipBlank()
		if p.eof() {
			return nil, nil, p.errf("unexpected end of input in function %s", name)
		}
		line := p.cur()
		if line == "}" {
			p.pos++
			break
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, " ") {
			cur = &rawBlock{name: strings.TrimSuffix(line, ":")}
			blocks = append(blocks, cur)
			p.pos++
			continue
		}
		if cur == nil {
			return nil, nil, p.errf("instruction before first block label")
		}
		ri, err := p.parseInstrLine(line)
		if err != nil {
			return nil, nil, err
		}
		cur.instrs = append(cur.instrs, ri)
		p.pos++
	}
	if len(blocks) == 0 {
		return nil, nil, p.errf("function %s has no blocks", name)
	}

	// Pass 1: create function, blocks, and assign registers to definitions.
	f := &Function{Name: name, Params: params, RegType: make([]Type, 1+len(params))}
	for i, t := range params {
		f.RegType[1+i] = t
	}
	blockByName := make(map[string]*Block, len(blocks))
	for _, rb := range blocks {
		if blockByName[rb.name] != nil {
			return nil, nil, fmt.Errorf("ir: %s: duplicate block %q", name, rb.name)
		}
		b := &Block{Name: rb.name}
		f.Blocks = append(f.Blocks, b)
		blockByName[rb.name] = b
	}
	var calls []refPendingCall
	regByName := make(map[string]Reg)
	used := make(map[Reg]bool)
	for i := range params {
		regByName[fmt.Sprintf("r%d", i+1)] = Reg(i + 1)
		used[Reg(i+1)] = true
	}
	next := Reg(1 + len(params))
	defReg := func(nm string, t Type, line int) (Reg, error) {
		if _, ok := regByName[nm]; ok {
			return NoReg, fmt.Errorf("ir: line %d: register %s defined more than once", line+1, nm)
		}
		var r Reg
		if n, ok := canonicalRegNumber(nm); ok {
			// Canonical r<N> names pin their number, preserving the printed
			// function's numbering across a round trip.
			if used[n] {
				return NoReg, fmt.Errorf("ir: line %d: register %s conflicts with an earlier definition", line+1, nm)
			}
			r = n
		} else {
			for used[next] {
				next++
			}
			r = next
		}
		for len(f.RegType) <= int(r) {
			f.RegType = append(f.RegType, I64)
		}
		f.RegType[r] = t
		regByName[nm] = r
		used[r] = true
		return r, nil
	}
	type pending struct {
		instr *Instr
		raw   *refRawInstr
	}
	var pendings []pending
	for bi, rb := range blocks {
		b := f.Blocks[bi]
		for i := range rb.instrs {
			ri := &rb.instrs[i]
			op, declared, err := parseMnemonic(ri.mnemonic)
			if err != nil {
				return nil, nil, fmt.Errorf("ir: line %d: %v", ri.line+1, err)
			}
			in := &Instr{Op: op, Type: declared, Imm: ri.imm}
			if op.HasDest() {
				if ri.dst == "" {
					return nil, nil, fmt.Errorf("ir: line %d: %s requires a destination", ri.line+1, op)
				}
				r, err := defReg(ri.dst, op.ResultType(declared), ri.line)
				if err != nil {
					return nil, nil, err
				}
				in.Dst = r
			} else if ri.dst != "" {
				return nil, nil, fmt.Errorf("ir: line %d: %s must not have a destination", ri.line+1, op)
			}
			b.Instrs = append(b.Instrs, in)
			pendings = append(pendings, pending{in, ri})
		}
	}

	// Pass 2: resolve operand registers and block targets.
	for _, pd := range pendings {
		for _, an := range pd.raw.args {
			r, ok := regByName[an]
			if !ok {
				return nil, nil, fmt.Errorf("ir: line %d: undefined register %s", pd.raw.line+1, an)
			}
			pd.instr.Args = append(pd.instr.Args, r)
		}
		for _, bn := range pd.raw.blocks {
			t, ok := blockByName[bn]
			if !ok {
				return nil, nil, fmt.Errorf("ir: line %d: undefined block %%%s", pd.raw.line+1, bn)
			}
			pd.instr.Blocks = append(pd.instr.Blocks, t)
		}
		if pd.raw.callee != "" {
			calls = append(calls, refPendingCall{instr: pd.instr, name: pd.raw.callee, line: pd.raw.line})
		}
		// Returns carry the type of their operand (the mnemonic has no
		// suffix to declare it).
		if pd.instr.Op == OpRet && len(pd.instr.Args) == 1 {
			pd.instr.Type = f.RegType[pd.instr.Args[0]]
		}
	}

	f.Finish()
	return f, calls, nil
}

func (p *refParser) parseInstrLine(line string) (refRawInstr, error) {
	ri := refRawInstr{line: p.pos}
	rest := line
	if eq := strings.Index(rest, " = "); eq >= 0 {
		ri.dst = strings.TrimSpace(rest[:eq])
		rest = strings.TrimSpace(rest[eq+3:])
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return ri, p.errf("empty instruction")
	}
	ri.mnemonic = fields[0]
	operands := strings.TrimSpace(strings.TrimPrefix(rest, fields[0]))

	base := ri.mnemonic
	if dot := strings.LastIndexByte(base, '.'); dot > 0 {
		if suf := base[dot+1:]; suf == "i64" || suf == "f64" {
			base = base[:dot]
		}
	}
	switch base {
	case "call":
		fields := strings.Fields(operands)
		if len(fields) == 0 || !strings.HasPrefix(fields[0], "@") {
			return ri, p.errf("call wants '@callee args...'")
		}
		ri.callee = strings.TrimPrefix(fields[0], "@")
		ri.args = fields[1:]
		return ri, nil
	case "const":
		return p.parseConst(ri, operands)
	case "phi":
		return p.parsePhi(ri, operands)
	case "br":
		t, err := parseBlockRef(operands)
		if err != nil {
			return ri, p.errf("%v", err)
		}
		ri.blocks = []string{t}
		return ri, nil
	case "condbr":
		parts := refSplitOperands(operands)
		if len(parts) != 3 {
			return ri, p.errf("condbr wants 'cond, %%then, %%else'")
		}
		ri.args = []string{parts[0]}
		for _, bp := range parts[1:] {
			t, err := parseBlockRef(bp)
			if err != nil {
				return ri, p.errf("%v", err)
			}
			ri.blocks = append(ri.blocks, t)
		}
		return ri, nil
	default:
		if operands != "" {
			ri.args = refSplitOperands(operands)
		}
		return ri, nil
	}
}

func (p *refParser) parseConst(ri refRawInstr, operands string) (refRawInstr, error) {
	operands = strings.TrimSpace(operands)
	if operands == "" {
		return ri, p.errf("const requires a literal")
	}
	if strings.HasSuffix(ri.mnemonic, ".f64") {
		if strings.HasPrefix(operands, "bits:") {
			bits, err := strconv.ParseUint(strings.TrimPrefix(operands, "bits:"), 0, 64)
			if err != nil {
				return ri, p.errf("bad f64 bit pattern: %v", err)
			}
			ri.imm = int64(bits)
			return ri, nil
		}
		v, err := strconv.ParseFloat(operands, 64)
		if err != nil {
			return ri, p.errf("bad f64 literal: %v", err)
		}
		ri.imm = int64(math.Float64bits(v))
		return ri, nil
	}
	v, err := strconv.ParseInt(operands, 0, 64)
	if err != nil {
		return ri, p.errf("bad i64 literal: %v", err)
	}
	ri.imm = v
	return ri, nil
}

func (p *refParser) parsePhi(ri refRawInstr, operands string) (refRawInstr, error) {
	rest := strings.TrimSpace(operands)
	for rest != "" {
		if rest[0] != '[' {
			return ri, p.errf("phi incoming must look like [block: reg]")
		}
		end := strings.IndexByte(rest, ']')
		if end < 0 {
			return ri, p.errf("unterminated phi incoming")
		}
		inner := rest[1:end]
		colon := strings.IndexByte(inner, ':')
		if colon < 0 {
			return ri, p.errf("phi incoming missing ':'")
		}
		ri.blocks = append(ri.blocks, strings.TrimSpace(inner[:colon]))
		ri.args = append(ri.args, strings.TrimSpace(inner[colon+1:]))
		rest = strings.TrimSpace(rest[end+1:])
	}
	if len(ri.args) == 0 {
		return ri, p.errf("phi requires at least one incoming edge")
	}
	return ri, nil
}

func refSplitOperands(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}
