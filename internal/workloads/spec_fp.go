package workloads

import (
	"math"

	"needle/internal/ir"
)

// SPEC FP kernels: floating-point dominated hot loops. Light `continue`
// paths split the loop's Ball-Larus paths into separate braid groups so the
// hottest braid's coverage lands near the namesake's Table IV value.

func fbits(v float64) uint64 { return math.Float64bits(v) }

// art: adaptive resonance F1 update — losing neurons skip via two light
// paths; winners run the FP update. Hot-braid coverage ~0.36.
var Art = register(&Workload{
	Name: "179.art", Suite: SPEC, FP: true,
	Notes:    "neural match: two skip continues, FP winner update",
	DefaultN: 12000,
	MemWords: func(n int) int { return 8192 },
	Build: func() *ir.Function {
		b := ir.NewBuilder("art_match", ir.I64, ir.I64, ir.I64)
		n, wts, ins := b.Param(0), b.Param(1), b.Param(2)
		mask := b.ConstI(4095)
		l := NewLoop(b, "f1", n, b.ConstF(0))

		idx := b.And(l.I, mask)
		w := b.Load(ir.F64, b.Add(wts, idx))
		x := b.Load(ir.F64, b.Add(ins, idx))
		prod := b.FMul(w, x)
		// Far-losers and near-losers leave through distinct latches.
		l.ContinueIf("f1.far", b.FCmpLT(prod, b.ConstF(0.25)), func() []ir.Reg {
			return []ir.Reg{l.Carried(0)}
		})
		l.ContinueIf("f1.near", b.FCmpLT(prod, b.ConstF(0.8)), func() []ir.Reg {
			return []ir.Reg{b.FAdd(l.Carried(0), b.ConstF(0.001))}
		})
		y := b.FAdd(l.Carried(0), prod)
		y = b.FMul(y, b.ConstF(0.995))
		y = b.FAdd(y, b.FMul(prod, b.ConstF(0.01)))
		res := diamond(b, "vig", b.FCmpGT(y, b.ConstF(1e6)),
			func() ir.Reg { return b.FMul(y, b.ConstF(0.5)) },
			func() ir.Reg { return y })
		l.End(res)
		b.Ret(l.Carried(0))
		return b.MustFinish()
	},
	Setup: func(mem []uint64, n int) []uint64 {
		r := rngFor("179.art")
		fillRuns(r, mem[:4096], 30, func() uint64 { return fbits(r.Float64()) })
		fillRuns(r, mem[4096:], 30, func() uint64 { return fbits(r.Float64() * 2) })
		return []uint64{uint64(n), 0, 4096}
	},
})

// equake: sparse matrix-vector product — empty rows skip; full rows run a
// long unrolled FP body. Coverage ~0.77.
var Equake = register(&Workload{
	Name: "183.equake", Suite: SPEC, FP: true,
	Notes:    "sparse matvec: empty-row continue, long unrolled FP body",
	DefaultN: 4000,
	MemWords: func(n int) int { return 16384 },
	Build: func() *ir.Function {
		b := ir.NewBuilder("equake_smvp", ir.I64, ir.I64, ir.I64)
		n, a, v := b.Param(0), b.Param(1), b.Param(2)
		mask := b.ConstI(8191)
		l := NewLoop(b, "row", n, b.ConstF(0))

		base := b.And(b.Mul(l.I, b.ConstI(8)), mask)
		first := b.Load(ir.F64, b.Add(a, base))
		l.ContinueIf("row.empty", b.FCmpLT(first, b.ConstF(0.12)), func() []ir.Reg {
			return []ir.Reg{l.Carried(0)}
		})
		sum := b.FMul(first, b.Load(ir.F64, b.Add(v, base)))
		for k := 1; k < 8; k++ {
			off := b.ConstI(int64(k))
			av := b.Load(ir.F64, b.Add(a, b.And(b.Add(base, off), mask)))
			vv := b.Load(ir.F64, b.Add(v, b.And(b.Add(base, b.Shl(off, b.ConstI(1))), mask)))
			sum = b.FAdd(sum, b.FMul(av, vv))
		}
		res := diamond(b, "anc", b.FCmpGT(sum, b.ConstF(60)),
			func() ir.Reg { return b.FMul(sum, b.ConstF(0.25)) },
			func() ir.Reg { return sum })
		l.End(b.FAdd(l.Carried(0), res))
		b.Ret(l.Carried(0))
		return b.MustFinish()
	},
	Setup: func(mem []uint64, n int) []uint64 {
		r := rngFor("183.equake")
		fillRuns(r, mem, 40, func() uint64 { return fbits(r.Float64()) })
		return []uint64{uint64(n), 0, 8192}
	},
})

// buildLJHelper constructs the Lennard-Jones evaluation as a separate
// function: namd's hot loop calls it, and the pipeline's aggressive
// inlining (passes.InlineAll in the pipeline's Inline stage) flattens it before profiling
// — the paper's "fully inlined hottest function" flow, exercised on a real
// workload rather than only in tests.
func buildLJHelper() *ir.Function {
	b := ir.NewBuilder("lj_eval", ir.F64)
	r2 := b.Param(0)
	r1 := b.Sqrt(r2)
	inv := b.FDiv(b.ConstF(1), b.FAdd(r1, b.ConstF(1e-9)))
	inv2 := b.FMul(inv, inv)
	inv6 := b.FMul(b.FMul(inv2, inv2), inv2)
	lj := b.FSub(b.FMul(inv6, inv6), inv6)
	b.Ret(b.FMul(lj, b.ConstF(4)))
	return b.MustFinish()
}

// namd: pairwise force — out-of-cutoff pairs (the majority) take two light
// exits; in-cutoff pairs call the Lennard-Jones helper (inlined by the
// pipeline before profiling). Coverage ~0.42.
var Namd = register(&Workload{
	Name: "444.namd", Suite: SPEC, FP: true,
	Notes:    "pair force: cutoff continues, LJ helper call inlined by the pipeline",
	DefaultN: 8000,
	MemWords: func(n int) int { return 12288 },
	Build: func() *ir.Function {
		lj := buildLJHelper()
		b := ir.NewBuilder("namd_pairforce", ir.I64, ir.I64, ir.I64, ir.I64)
		n, xsArr, ysArr, zsArr := b.Param(0), b.Param(1), b.Param(2), b.Param(3)
		mask := b.ConstI(4095)
		l := NewLoop(b, "pair", n, b.ConstF(0))

		i1 := b.And(l.I, mask)
		i2 := b.And(b.Add(l.I, b.ConstI(91)), mask)
		x1 := b.Load(ir.F64, b.Add(xsArr, i1))
		x2 := b.Load(ir.F64, b.Add(xsArr, i2))
		dx := b.FSub(x1, x2)
		dx2 := b.FMul(dx, dx)
		// Quick reject on the x component alone.
		l.ContinueIf("pair.farx", b.FCmpGT(dx2, b.ConstF(1.1)), func() []ir.Reg {
			return []ir.Reg{l.Carried(0)}
		})
		y1 := b.Load(ir.F64, b.Add(ysArr, i1))
		y2 := b.Load(ir.F64, b.Add(ysArr, i2))
		z1 := b.Load(ir.F64, b.Add(zsArr, i1))
		z2 := b.Load(ir.F64, b.Add(zsArr, i2))
		dy := b.FSub(y1, y2)
		dz := b.FSub(z1, z2)
		r2 := b.FAdd(b.FAdd(dx2, b.FMul(dy, dy)), b.FMul(dz, dz))
		l.ContinueIf("pair.far", b.FCmpGE(r2, b.ConstF(1.2)), func() []ir.Reg {
			return []ir.Reg{l.Carried(0)}
		})

		force := b.Call(lj, r2)
		fin := diamond(b, "exc", b.FCmpGT(force, b.ConstF(1e5)),
			func() ir.Reg { return b.ConstF(0) },
			func() ir.Reg { return force })
		l.End(b.FAdd(l.Carried(0), fin))
		b.Ret(l.Carried(0))
		return b.MustFinish()
	},
	Setup: func(mem []uint64, n int) []uint64 {
		r := rngFor("444.namd")
		fillRuns(r, mem, 16, func() uint64 { return fbits(r.Float64() * 1.5) })
		return []uint64{uint64(n), 0, 4096, 8192}
	},
})

// soplex: steepest-edge pricing — fixed columns skip; candidate columns run
// the ratio test. Coverage ~0.57.
var Soplex = register(&Workload{
	Name: "450.soplex", Suite: SPEC, FP: true,
	Notes:    "simplex pricing: fixed-column continue, FP ratio test",
	DefaultN: 10000,
	MemWords: func(n int) int { return 8192 },
	Build: func() *ir.Function {
		b := ir.NewBuilder("soplex_price", ir.I64, ir.I64, ir.I64)
		n, objArr, normArr := b.Param(0), b.Param(1), b.Param(2)
		mask := b.ConstI(4095)
		l := NewLoop(b, "col", n, b.ConstF(-1))

		idx := b.And(l.I, mask)
		obj := b.Load(ir.F64, b.Add(objArr, idx))
		l.ContinueIf("col.fixed", b.FCmpLT(obj, b.ConstF(0.42)), func() []ir.Reg {
			return []ir.Reg{l.Carried(0)}
		})
		nrm := b.Load(ir.F64, b.Add(normArr, idx))
		ratio := b.FDiv(b.FMul(obj, obj), b.FAdd(nrm, b.ConstF(1e-9)))
		best := diamond(b, "imp", b.FCmpGT(ratio, l.Carried(0)),
			func() ir.Reg { return ratio },
			func() ir.Reg { return l.Carried(0) })
		dec := diamond(b, "dec", b.FCmpGT(best, b.ConstF(500)),
			func() ir.Reg { return b.FMul(best, b.ConstF(0.99)) },
			func() ir.Reg { return best })
		l.End(dec)
		b.Ret(l.Carried(0))
		return b.MustFinish()
	},
	Setup: func(mem []uint64, n int) []uint64 {
		r := rngFor("450.soplex")
		fillRuns(r, mem, 26, func() uint64 { return fbits(r.Float64() + 0.1) })
		return []uint64{uint64(n), 0, 4096}
	},
})

// povray: ray-primitive intersection — an empty-cell continue, then a
// battery of discriminant tests. Coverage ~0.85.
var Povray = register(&Workload{
	Name: "453.povray", Suite: SPEC, FP: true,
	Notes:    "ray intersection: empty-cell continue, 8-branch FP body",
	DefaultN: 10000,
	MemWords: func(n int) int { return 16384 },
	Build: func() *ir.Function {
		b := ir.NewBuilder("povray_intersect", ir.I64, ir.I64, ir.I64)
		n, sph, ray := b.Param(0), b.Param(1), b.Param(2)
		mask := b.ConstI(8191)
		l := NewLoop(b, "ray", n, b.ConstF(0))

		probe := b.Load(ir.F64, b.Add(ray, b.And(l.I, mask)))
		l.ContinueIf("ray.empty", b.FCmpGT(probe, b.ConstF(0.8)), func() []ir.Reg {
			return []ir.Reg{l.Carried(0)}
		})

		hit := b.ConstF(0)
		for s := 0; s < 4; s++ {
			si := b.And(b.Add(l.I, b.ConstI(int64(s*511))), mask)
			cx := b.Load(ir.F64, b.Add(sph, si))
			dx := b.Load(ir.F64, b.Add(ray, si))
			bq := b.FMul(cx, dx)
			cq := b.FSub(b.FMul(cx, cx), b.ConstF(0.25))
			disc := b.FSub(b.FMul(bq, bq), cq)
			tag := string(rune('0' + s))
			hit = diamond(b, "disc"+tag, b.FCmpGT(disc, b.ConstF(0)),
				func() ir.Reg {
					root := b.Sqrt(disc)
					t0 := b.FSub(bq, root)
					return diamond(b, "clip"+tag, b.FCmpGT(t0, b.ConstF(0.01)),
						func() ir.Reg { return b.FAdd(hit, t0) },
						func() ir.Reg { return hit })
				},
				func() ir.Reg { return hit })
		}
		l.End(b.FAdd(l.Carried(0), hit))
		b.Ret(l.Carried(0))
		return b.MustFinish()
	},
	Setup: func(mem []uint64, n int) []uint64 {
		r := rngFor("453.povray")
		fillRuns(r, mem[:8192], 22, func() uint64 { return fbits(r.Float64()*2 - 1) })
		fillRuns(r, mem[8192:], 22, func() uint64 { return fbits(r.Float64()*2 - 1) })
		return []uint64{uint64(n), 0, 8192}
	},
})

// hmmer: Viterbi inner loop — a skip for masked cells, then the unrolled
// max-chain body. Coverage ~0.85.
var Hmmer = register(&Workload{
	Name: "456.hmmer", Suite: SPEC,
	Notes:    "viterbi: masked-cell continue, 6-branch max-chain, ~30 mem ops",
	DefaultN: 8000,
	MemWords: func(n int) int { return 20480 },
	Build: func() *ir.Function {
		b := ir.NewBuilder("hmmer_viterbi", ir.I64, ir.I64, ir.I64, ir.I64)
		n, mm, im, dm := b.Param(0), b.Param(1), b.Param(2), b.Param(3)
		mask := b.ConstI(4095)
		l := NewLoop(b, "k", n, b.ConstI(0))

		probe := b.Load(ir.I64, b.Add(dm, b.And(l.I, mask)))
		l.ContinueIf("k.masked", b.CmpGE(probe, b.ConstI(880)), func() []ir.Reg {
			return []ir.Reg{l.Carried(0)}
		})

		acc := l.Carried(0)
		for u := 0; u < 2; u++ {
			idx := b.And(b.Add(l.I, b.ConstI(int64(u))), mask)
			mv := b.Load(ir.I64, b.Add(mm, idx))
			iv := b.Load(ir.I64, b.Add(im, idx))
			dv := b.Load(ir.I64, b.Add(dm, idx))
			tag := string(rune('0' + u))
			best := diamond(b, "mi"+tag, b.CmpGT(mv, iv),
				func() ir.Reg { return mv },
				func() ir.Reg { return iv })
			best2 := diamond(b, "md"+tag, b.CmpGT(best, dv),
				func() ir.Reg { return best },
				func() ir.Reg { return dv })
			sc := b.Add(best2, b.ConstI(3))
			b.Store(b.Add(mm, idx), sc)
			prev := b.Load(ir.I64, b.Add(im, b.And(b.Add(idx, b.ConstI(1)), mask)))
			upd := diamond(b, "ins"+tag, b.CmpGT(sc, prev),
				func() ir.Reg {
					b.Store(b.Add(im, idx), sc)
					return b.Add(acc, sc)
				},
				func() ir.Reg { return acc })
			acc = upd
		}
		l.End(acc)
		b.Ret(l.Carried(0))
		return b.MustFinish()
	},
	Setup: func(mem []uint64, n int) []uint64 {
		r := rngFor("456.hmmer")
		fillRuns(r, mem, 18, func() uint64 { return uint64(r.Intn(1000)) })
		return []uint64{uint64(n), 0, 8192, 16384}
	},
})

// lbm: lattice-Boltzmann stream-collide — the largest straight-line FP body
// in the suite; a single braid covers essentially everything (paper: 100%).
var Lbm = register(&Workload{
	Name: "470.lbm", Suite: SPEC, FP: true,
	Notes:    "stream-collide: ~200-op straight-line FP body, 2 paths",
	DefaultN: 2500,
	MemWords: func(n int) int { return 40960 },
	Build: func() *ir.Function {
		b := ir.NewBuilder("lbm_collide", ir.I64, ir.I64, ir.I64)
		n, grid, dst := b.Param(0), b.Param(1), b.Param(2)
		mask := b.ConstI(16383)
		l := NewLoop(b, "cell", n, b.ConstF(0))

		base := b.And(b.Mul(l.I, b.ConstI(19)), mask)
		var fs []ir.Reg
		rho := b.ConstF(0)
		for k := 0; k < 19; k++ {
			fv := b.Load(ir.F64, b.Add(grid, b.And(b.Add(base, b.ConstI(int64(k))), mask)))
			fs = append(fs, fv)
			rho = b.FAdd(rho, fv)
		}
		ux := b.FSub(fs[1], fs[2])
		uy := b.FSub(fs[3], fs[4])
		uz := b.FSub(fs[5], fs[6])
		u2 := b.FAdd(b.FAdd(b.FMul(ux, ux), b.FMul(uy, uy)), b.FMul(uz, uz))
		omega := b.ConstF(1.85)
		for k := 0; k < 19; k++ {
			wk := b.ConstF(1.0 / 19.0)
			eq := b.FMul(wk, b.FAdd(rho, b.FMul(u2, b.ConstF(-1.5))))
			relaxed := b.FAdd(fs[k], b.FMul(omega, b.FSub(eq, fs[k])))
			b.Store(b.Add(dst, b.And(b.Add(base, b.ConstI(int64(k))), mask)), relaxed)
		}
		acc := diamond(b, "obst", b.FCmpLT(rho, b.ConstF(-1)),
			func() ir.Reg { return l.Carried(0) },
			func() ir.Reg { return b.FAdd(l.Carried(0), rho) })
		l.End(acc)
		b.Ret(l.Carried(0))
		return b.MustFinish()
	},
	Setup: func(mem []uint64, n int) []uint64 {
		r := rngFor("470.lbm")
		for i := 0; i < 16384; i++ {
			mem[i] = fbits(r.Float64() * 0.1)
		}
		return []uint64{uint64(n), 0, 16384}
	},
})

// sphinx3: Gaussian mixture scoring — pruned mixtures skip early.
// Coverage ~0.82.
var Sphinx3 = register(&Workload{
	Name: "482.sphinx3", Suite: SPEC, FP: true,
	Notes:    "GMM scoring: prune continue, short FP body",
	DefaultN: 10000,
	MemWords: func(n int) int { return 8192 },
	Build: func() *ir.Function {
		b := ir.NewBuilder("sphinx_gmm", ir.I64, ir.I64, ir.I64)
		n, mean, varr := b.Param(0), b.Param(1), b.Param(2)
		mask := b.ConstI(4095)
		l := NewLoop(b, "mix", n, b.ConstF(0))

		idx := b.And(l.I, mask)
		m := b.Load(ir.F64, b.Add(mean, idx))
		l.ContinueIf("mix.prune", b.FCmpGT(m, b.ConstF(0.86)), func() []ir.Reg {
			return []ir.Reg{l.Carried(0)}
		})
		v := b.Load(ir.F64, b.Add(varr, idx))
		d := b.FSub(m, b.ConstF(0.5))
		score := b.FMul(b.FMul(d, d), v)
		score = b.FAdd(score, b.FMul(m, b.ConstF(0.125)))
		acc := diamond(b, "keep", b.FCmpLT(score, b.ConstF(0.4)),
			func() ir.Reg { return b.FAdd(l.Carried(0), score) },
			func() ir.Reg { return l.Carried(0) })
		l.End(acc)
		b.Ret(l.Carried(0))
		return b.MustFinish()
	},
	Setup: func(mem []uint64, n int) []uint64 {
		r := rngFor("482.sphinx3")
		fillRuns(r, mem, 24, func() uint64 { return fbits(r.Float64()) })
		return []uint64{uint64(n), 0, 4096}
	},
})
