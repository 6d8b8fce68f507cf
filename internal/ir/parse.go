package ir

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse reads the textual .nir format produced by Print and reconstructs a
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
func Parse(src string) (*Module, error) {
	p := &parser{lines: strings.Split(src, "\n")}
	m := &Module{}
	var pendingCalls []pendingCall
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

// pendingCall records a call instruction awaiting module-level resolution.
type pendingCall struct {
	instr *Instr
	name  string
	line  int
}

// ParseFunction parses a source containing exactly one function.
func ParseFunction(src string) (*Function, error) {
	m, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(m.Funcs) != 1 {
		return nil, fmt.Errorf("ir: expected exactly one function, found %d", len(m.Funcs))
	}
	return m.Funcs[0], nil
}

type parser struct {
	lines []string
	pos   int
}

func (p *parser) eof() bool { return p.pos >= len(p.lines) }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("ir: line %d: %s", p.pos+1, fmt.Sprintf(format, args...))
}

func (p *parser) cur() string {
	line := p.lines[p.pos]
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

func (p *parser) skipBlank() {
	for !p.eof() && p.cur() == "" {
		p.pos++
	}
}

// rawInstr is an instruction parsed into names, before register resolution.
type rawInstr struct {
	line     int
	dst      string
	mnemonic string
	args     []string // register names
	imm      int64
	blocks   []string // branch targets / phi incoming blocks
	callee   string   // called function name for call instructions
}

func (p *parser) parseFunc() (*Function, []pendingCall, error) {
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
		instrs []rawInstr
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
	var calls []pendingCall
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
		raw   *rawInstr
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
			calls = append(calls, pendingCall{instr: pd.instr, name: pd.raw.callee, line: pd.raw.line})
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

func (p *parser) parseInstrLine(line string) (rawInstr, error) {
	ri := rawInstr{line: p.pos}
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
		parts := splitOperands(operands)
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
			ri.args = splitOperands(operands)
		}
		return ri, nil
	}
}

func (p *parser) parseConst(ri rawInstr, operands string) (rawInstr, error) {
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

func (p *parser) parsePhi(ri rawInstr, operands string) (rawInstr, error) {
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

// maxCanonicalReg bounds the register number a canonical r<N> name may pin,
// so a hand-written file cannot force an absurd RegType allocation.
const maxCanonicalReg = 1 << 20

// canonicalRegNumber reports whether a register name is the printer's
// canonical r<N> form (no leading zeros) and, if so, its number.
func canonicalRegNumber(nm string) (Reg, bool) {
	if len(nm) < 2 || nm[0] != 'r' || nm[1] == '0' {
		return NoReg, false
	}
	n := 0
	for i := 1; i < len(nm); i++ {
		c := nm[i]
		if c < '0' || c > '9' {
			return NoReg, false
		}
		n = n*10 + int(c-'0')
		if n > maxCanonicalReg {
			return NoReg, false
		}
	}
	return Reg(n), true
}

func splitOperands(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

func parseBlockRef(s string) (string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "%") || len(s) < 2 {
		return "", fmt.Errorf("expected block reference %%name, got %q", s)
	}
	return s[1:], nil
}

func parseType(s string) (Type, error) {
	switch s {
	case "i64":
		return I64, nil
	case "f64":
		return F64, nil
	}
	return I64, fmt.Errorf("unknown type %q", s)
}

// parseMnemonic splits a mnemonic like "load.i64" into opcode and type.
func parseMnemonic(m string) (Op, Type, error) {
	declared := I64
	base := m
	if dot := strings.LastIndexByte(m, '.'); dot > 0 {
		suf := m[dot+1:]
		if suf == "i64" || suf == "f64" {
			base = m[:dot]
			t, _ := parseType(suf)
			declared = t
		}
	}
	op, ok := OpByName(base)
	if !ok {
		return 0, I64, fmt.Errorf("unknown opcode %q", m)
	}
	if opNeedsTypeSuffix(op) && base == m {
		return 0, I64, fmt.Errorf("opcode %q requires a type suffix", m)
	}
	if impliedType(op) == F64 {
		declared = F64
	}
	return op, declared, nil
}

// impliedType is the type of an op whose mnemonic has no type suffix: F64
// for float arithmetic, the intrinsics and sitofp, I64 otherwise.
func impliedType(op Op) Type {
	if op.IsFloat() && !op.IsCompare() && op != OpFPToSI {
		return F64
	}
	return I64
}
