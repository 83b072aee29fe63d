"""Molecular integral ingest/emit and analytic s-orbital Gaussian integrals.

Hydrogen systems (H2, hydrogen chains) are generated internally from
closed-form formulas for s-type Gaussians; everything else enters through
FCIDUMP interchange files.  Dataset manifests round-trip through JSON and
feature tables through CSV; read_json and read_table are the one reader of
each format, and write_table is the one CSV writer.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MolecularIntegrals",
    "ManifestEntry",
    "STO3G_HYDROGEN",
    "hydrogen_chain",
    "h2_geometry",
    "s_orbital_integrals",
    "parse_fcidump",
    "emit_fcidump",
    "read_json",
    "read_table",
    "write_table",
    "load_manifest",
    "save_manifest",
    "save_features",
    "load_features",
    "FcidumpError",
    "ManifestError",
]

# STO-3G 1s contraction for hydrogen: (exponent / bohr^-2, coefficient).
STO3G_HYDROGEN = (
    (3.42525091, 0.15432897),
    (0.62391373, 0.53532814),
    (0.16885540, 0.44463454),
)
_ERI_BLOCK = 32  # bra primitive pairs per block of the ERI pair-pair table
# Smallest overlap eigenvalue s_orbital_integrals accepts.  Below it the
# basis is nearly linearly dependent and later stages fail on round-off: the
# DMET cluster of an H4 chain with two nuclei 2.4e-2 bohr apart (eigenvalue
# 8.1e-5) failed the Jordan-Wigner Hermiticity check, and no H2, H4 or H6
# chain at 1.1e-4 or above failed.
_MIN_OVERLAP_EIGENVALUE = 1e-4


class FcidumpError(ValueError):
    """Raised for malformed FCIDUMP text; carries the offending line number."""


class ManifestError(ValueError):
    """Raised for malformed or inconsistent dataset manifests."""


def h2_geometry(separation: float) -> np.ndarray:
    """H2 along z at the given bond length (bohr): its (2, 3) nuclear centres."""
    return hydrogen_chain([0.0, separation])


def hydrogen_chain(z_positions) -> np.ndarray:
    """Linear chain of hydrogen atoms at the given z coordinates (bohr): the
    (n, 3) array of nuclear centres."""
    z = np.asarray(z_positions, dtype=float)
    return np.stack([np.zeros_like(z), np.zeros_like(z), z], axis=-1)


@dataclass
class MolecularIntegrals:
    """AO-basis integrals: overlap, core Hamiltonian, ERIs (chemist (pq|rs))."""

    n_orbitals: int
    n_electrons: int
    S: np.ndarray
    h_core: np.ndarray
    eri: np.ndarray
    e_nuclear: float

    def validate(self) -> None:
        """Raise ValueError on a shape, finiteness, symmetry or electron-count fault."""
        def require(ok, what):
            if not ok:
                raise ValueError(f"invalid integrals: {what}")

        n = self.n_orbitals
        require(self.S.shape == (n, n) and self.h_core.shape == (n, n),
                f"S and h_core must be {n}x{n}")
        require(self.eri.shape == (n, n, n, n), f"eri must be {n}x{n}x{n}x{n}")
        require(np.all(np.isfinite(self.S)) and np.all(np.isfinite(self.h_core)),
                "non-finite S or h_core")
        require(np.all(np.isfinite(self.eri)), "non-finite eri")
        require(np.allclose(self.S, self.S.T, atol=1e-8), "S not symmetric")
        require(np.allclose(self.h_core, self.h_core.T, atol=1e-8), "h_core not symmetric")
        for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
            require(np.allclose(self.eri, self.eri.transpose(perm), atol=1e-8),
                    f"eri not symmetric under {perm}")
        require(math.isfinite(self.e_nuclear), "non-finite core energy")
        require(self.n_electrons % 2 == 0 and 0 < self.n_electrons <= 2 * n,
                f"electron count must be even, positive and at most {2 * n}")


# Rational forms of Cephes ndtr.c (S. L. Moshier): erf(s) = s T(s^2) / U(s^2)
# for s <= 1, and erfc(s) = exp(-s^2) P(s) / Q(s) for 1 < s < 8.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(x, coefs):
    """Polynomial with the given coefficients, highest power first, at x."""
    y = coefs[0]
    for c in coefs[1:]:
        y = y * x + c
    return y


def _erf(s: np.ndarray) -> np.ndarray:
    """erf(s) for s >= 0, within 1 ulp of scipy.special.erf.  From s = 6 on,
    erfc(s) < 2.2e-17 and erf(s) rounds to 1."""
    out = np.ones_like(s)
    low = s <= 1.0
    sl = s[low]
    z = sl * sl
    out[low] = sl * _horner(z, _ERF_T) / _horner(z, _ERF_U)
    mid = ~low & (s < 6.0)
    sm = s[mid]
    out[mid] = 1.0 - np.exp(-sm * sm) * _horner(sm, _ERFC_P) / _horner(sm, _ERFC_Q)
    return out


def _boys_f0(x: np.ndarray) -> np.ndarray:
    """Boys function F0(x), stable at x -> 0 via the Taylor branch."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 1e-6
    xs = x[small]
    out[small] = 1.0 - xs / 3.0 + xs * xs / 10.0
    xl = x[~small]
    out[~small] = 0.5 * np.sqrt(np.pi / xl) * _erf(np.sqrt(xl))
    return out


# Far-apart or huge coordinates overflow to inf or nan without a warning;
# validate() then rejects the integrals with a ValueError.
@np.errstate(over="ignore", invalid="ignore")
def s_orbital_integrals(centres, n_electrons: int | None = None) -> MolecularIntegrals:
    """Overlap, core Hamiltonian and ERIs for hydrogen atoms at the given
    (n, 3) nuclear centres (bohr).

    One STO-3G 1s function and one unit charge per centre, each function
    renormalized so that the diagonal of S is exactly 1.  n_electrons
    defaults to n, which must then be even.
    """
    centres = np.asarray(centres, dtype=float)
    if centres.ndim != 2 or centres.shape[1] != 3 or len(centres) == 0:
        raise ValueError(f"centres must be a non-empty (n, 3) array, not {centres.shape}")
    if not np.all(np.isfinite(centres)):
        raise ValueError("non-finite atomic position")
    n = len(centres)
    dist = [np.linalg.norm(centres[a] - centres[b])
            for a in range(n) for b in range(a + 1, n)]
    if min(dist, default=np.inf) < 1e-10:
        raise ValueError("coincident nuclei give a singular attraction integral")

    # Primitives atom by atom, primitive normalization folded into the coefficient.
    alpha = np.tile([a for a, _ in STO3G_HYDROGEN], n)
    coef = np.tile([c * (2.0 * a / np.pi) ** 0.75 for a, c in STO3G_HYDROGEN], n)
    fn = np.repeat(np.arange(n), len(STO3G_HYDROGEN))
    A = centres[fn]
    m = len(alpha)

    # Pairwise primitive quantities.
    p = alpha[:, None] + alpha[None, :]
    mu = alpha[:, None] * alpha[None, :] / p
    ab2 = np.sum((A[:, None, :] - A[None, :, :]) ** 2, axis=-1)
    K = np.exp(-mu * ab2)
    P = (alpha[:, None, None] * A[:, None, :] + alpha[None, :, None] * A[None, :, :]) / p[:, :, None]

    s_prim = (np.pi / p) ** 1.5 * K
    t_prim = mu * (3.0 - 2.0 * mu * ab2) * s_prim

    pc2 = np.sum((P[:, :, None, :] - centres[None, None, :, :]) ** 2, axis=-1)
    v_prim = -(2.0 * np.pi / p)[:, :, None] * K[:, :, None] * _boys_f0(p[:, :, None] * pc2)
    v_prim = np.einsum("abc,c->ab", v_prim, np.ones(n))  # unit nuclear charges

    cc = coef[:, None] * coef[None, :]

    def contract2(prim):
        out = np.zeros((n, n))
        np.add.at(out, (fn[:, None], fn[None, :]), cc * prim)
        return out

    S = contract2(s_prim)
    # Renormalize contracted functions so S_ii = 1.
    norm = 1.0 / np.sqrt(np.diag(S))
    coef = coef * norm[fn]
    cc = coef[:, None] * coef[None, :]
    S = contract2(s_prim)
    s_min = np.linalg.eigvalsh(S)[0]
    if not s_min >= _MIN_OVERLAP_EIGENVALUE:
        raise ValueError(f"overlap eigenvalue {s_min:.3g} below {_MIN_OVERLAP_EIGENVALUE:g}: "
                         "the basis is nearly linearly dependent (nuclei too close)")
    h = contract2(t_prim + v_prim)

    # Two-electron integrals (ab|cd) over primitives, then contracted.  p, K,
    # P and cc are bitwise symmetric in their two primitives, so the value
    # of each unordered pair-pair {a,b},{c,d} is computed once, in row blocks
    # of _ERI_BLOCK bra pairs.  Not under (ab) <-> (cd): Kab * Kcd rounds in
    # order.  The values are then gathered back and added with np.add.at in
    # (a, b, c, d) order, skipping bra pairs below 1e-18, which gives the
    # sums of a loop over a, b with one (c, d) table each.  The Boys
    # argument is bitwise symmetric under (ab) <-> (cd), so a first pass
    # fills V with F0 from the block's first row on and copies the columns
    # before it from the rows above; a second pass turns F0 into the values
    # in place (a second pair-pair table cost a page fault per 4 KB per call).
    ua, ub = np.triu_indices(m)
    pair = np.empty((m, m), dtype=np.int64)
    pair[ua, ub] = pair[ub, ua] = np.arange(ua.size)
    q, Kq, Pq, ccq = p[ua, ub], K[ua, ub], P[ua, ub], cc[ua, ub]
    V = np.empty((ua.size, ua.size))
    for start in range(0, ua.size, _ERI_BLOCK):
        rows = slice(start, start + _ERI_BLOCK)
        pab, qr = q[rows, None], q[start:]
        pq2 = np.sum((Pq[rows, None, :] - Pq[start:]) ** 2, axis=-1)
        V[rows, :start] = V[:start, rows].T
        V[rows, start:] = _boys_f0(pab * qr / (pab + qr) * pq2)
    pref = 2.0 * np.pi ** 2.5
    for start in range(0, ua.size, _ERI_BLOCK):
        rows = slice(start, start + _ERI_BLOCK)
        pab = q[rows, None]
        val = pref / (pab * q * np.sqrt(pab + q)) * Kq[rows, None] * Kq * V[rows]
        V[rows] = ccq[rows, None] * ccq * val
    eri = np.zeros((n, n, n, n))
    ket = (fn[:, None] * n + fn).ravel()
    for a in range(m):
        b = np.flatnonzero(~(K[a] * np.abs(cc[a]) < 1e-18))
        bra = (fn[a] * n + fn[b]) * n * n
        np.add.at(eri.reshape(-1), (bra[:, None] + ket).ravel(),
                  V[pair[a, b]][:, pair.ravel()].ravel())

    # Enforce the 8-fold permutation symmetry exactly (summation-order noise
    # between equivalent primitive loops is ~1e-17 otherwise).
    eri = (eri + eri.transpose(1, 0, 2, 3)) / 2.0
    eri = (eri + eri.transpose(0, 1, 3, 2)) / 2.0
    eri = (eri + eri.transpose(2, 3, 0, 1)) / 2.0

    e_nuc = sum((1.0 / d for d in dist), 0.0)
    if n_electrons is None:
        n_electrons = n
        if n % 2 == 1:
            raise ValueError("odd electron count; pass n_electrons explicitly")

    out = MolecularIntegrals(
        n_orbitals=n,
        n_electrons=n_electrons,
        S=S,
        h_core=h,
        eri=eri,
        e_nuclear=e_nuc,
    )
    out.validate()
    return out


# ---------------------------------------------------------------------------
# FCIDUMP interchange
# ---------------------------------------------------------------------------

def _eri_images(p, q, r, s):
    return {
        (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
        (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
    }


def parse_fcidump(text: str) -> MolecularIntegrals:
    """Parse FCIDUMP text (1-based indices, zero indices flag 1e/core records)."""
    lines = text.splitlines()
    header_end = None
    header = ""
    for i, line in enumerate(lines):
        header += " " + line
        if "&END" in line.upper() or line.strip() == "/":
            header_end = i
            break
    if header_end is None:
        raise FcidumpError("line 1: no &END terminator found in FCIDUMP header")

    def header_int(key):
        # The value runs from KEY= (and any padding) to the next comma or space.
        match = re.search(key + r"=\s*([^,\s]*)", header.upper())
        if match is None:
            raise FcidumpError(f"line 1: missing {key} in header")
        try:
            return int(match[1])
        except ValueError as exc:
            raise FcidumpError(f"line 1: non-integer {key}={match[1]!r}") from exc

    norb = header_int("NORB")
    nelec = header_int("NELEC")
    if norb < 1:
        raise FcidumpError("line 1: NORB must be >= 1")

    h = np.zeros((norb, norb))
    eri = np.zeros((norb, norb, norb, norb))
    e_nuc = 0.0
    for ln, line in enumerate(lines[header_end + 1:], start=header_end + 2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 5:
            raise FcidumpError(f"line {ln}: expected `value p q r s`, got {len(parts)} fields")
        try:
            val = float(parts[0].replace("D", "E").replace("d", "e"))
        except ValueError as exc:
            raise FcidumpError(f"line {ln}: non-numeric value {parts[0]!r}") from exc
        try:
            p, q, r, s = (int(t) for t in parts[1:])
        except ValueError as exc:
            raise FcidumpError(f"line {ln}: non-integer index") from exc
        for idx in (p, q, r, s):
            if idx < 0 or idx > norb:
                raise FcidumpError(f"line {ln}: index {idx} out of range 0..{norb}")
        if p == q == r == s == 0:
            e_nuc = val
        elif r == 0 and s == 0:
            if p == 0 or q == 0:
                raise FcidumpError(f"line {ln}: malformed one-electron record")
            h[p - 1, q - 1] = val
            h[q - 1, p - 1] = val
        elif 0 in (p, q, r, s):
            raise FcidumpError(f"line {ln}: mixed zero/nonzero indices")
        else:
            for a, b, c, d in _eri_images(p - 1, q - 1, r - 1, s - 1):
                eri[a, b, c, d] = val

    m = MolecularIntegrals(
        n_orbitals=norb,
        n_electrons=nelec,
        S=np.eye(norb),
        h_core=h,
        eri=eri,
        e_nuclear=e_nuc,
    )
    try:
        m.validate()
    except ValueError as exc:
        raise FcidumpError(str(exc)) from exc
    return m


def emit_fcidump(m: MolecularIntegrals) -> str:
    """Emit canonical FCIDUMP text: unique representatives, descending tuples."""
    n = m.n_orbitals
    out = [f"&FCI NORB={n},NELEC={m.n_electrons},MS2=0,", " ISYM=1,", "&END"]

    # Representatives (pq|rs) with q <= p, s <= r and (p, q) >= (r, s), in
    # descending lexicographic order.
    for p in range(n - 1, -1, -1):
        for q in range(p, -1, -1):
            for r in range(p, -1, -1):
                for s in range(q if r == p else r, -1, -1):
                    val = m.eri[p, q, r, s]
                    if abs(val) < 1e-14:
                        continue
                    out.append(f"{val:24.16E} {p + 1} {q + 1} {r + 1} {s + 1}")
    for p in range(n - 1, -1, -1):
        for q in range(p, -1, -1):
            val = m.h_core[p, q]
            if abs(val) < 1e-14:
                continue
            out.append(f"{val:24.16E} {p + 1} {q + 1} 0 0")
    out.append(f"{m.e_nuclear:24.16E} 0 0 0 0")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Dataset manifests and feature tables
# ---------------------------------------------------------------------------

def read_json(path: str):
    """The JSON value in the UTF-8 file at path; a ValueError naming the file
    when the file cannot be read, decoded or parsed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply to read") from exc
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ValueError(f"{path}: cannot read JSON: {exc}") from exc


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{where}: {text!r} is not a finite number")
    return value


def read_table(path: str):
    """(columns, ids, values) of a CSV table headed `molecule_id,<column>,...`:
    the columns after molecule_id, the ids and a (len(ids), len(columns))
    array.  Skips blank lines; raises ValueError `{path}: line {n}: ...` on a
    bad header, a row of the wrong width, a repeated id or a cell that is not
    a finite number."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: cannot read table: {exc}") from exc
    header = lines[0].rstrip("\n").split(",") if lines else [""]
    if header[0] != "molecule_id":
        raise ValueError(f"{path}: line 1: header must start with `molecule_id`")
    ids, rows, seen = [], [], set()
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}: line {ln}: expected {len(header)} fields, "
                             f"got {len(parts)}")
        if parts[0] in seen:
            raise ValueError(f"{path}: line {ln}: repeated molecule id {parts[0]!r}")
        seen.add(parts[0])
        ids.append(parts[0])
        rows.append([_finite(v, f"{path}: line {ln}") for v in parts[1:]])
    values = np.array(rows, dtype=float).reshape(len(rows), len(header) - 1)
    return header[1:], ids, values


def write_table(path: str, header, rows) -> None:
    """Write a CSV table: the header fields, then one line per row, with text
    as is and numbers as %.17g, which read_table reads back exactly."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")


@dataclass(frozen=True)
class ManifestEntry:
    molecule_id: str
    source: dict  # {"fcidump": path} or {"generator": {...params}}
    target: float
    label: str


def load_manifest(path: str) -> list:
    """Load and validate a dataset manifest JSON file: its ManifestEntry list."""
    try:
        raw = read_json(path)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list):
        raise ManifestError(f"{path}: manifest must be an object with an `entries` list")
    version = raw.get("format_version", 1)
    if version != 1 or type(version) is not int:  # not true, 1.0 or "1" either
        raise ManifestError(f"{path}: `format_version` must be 1 or absent, got {version!r}")
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    seen = set()
    for i, e in enumerate(raw["entries"]):
        if not isinstance(e, dict) or "id" not in e:
            raise ManifestError(f"{path}: entry {i} is not an object with an `id`")
        mid = _manifest_value((str,), e["id"], path, f"entry {i}: `id`")
        if any(c in mid for c in ",\r\n"):  # each would split a features.csv row
            raise ManifestError(f"{path}: entry {i}: id {mid!r} holds a comma or line break")
        if mid in seen:
            raise ManifestError(f"{path}: duplicate molecule id {mid!r}")
        seen.add(mid)
        source = {}
        if "fcidump" in e:
            fpath = e["fcidump"]
            if not isinstance(fpath, str):
                raise ManifestError(f"{path}: id {mid!r}: `fcidump` must be a file name")
            if not os.path.isabs(fpath):
                fpath = os.path.join(base, fpath)
            if not os.path.exists(fpath):
                raise ManifestError(f"{path}: id {mid!r} references missing file {fpath}")
            source["fcidump"] = fpath
        elif "generator" in e:
            if not isinstance(e["generator"], dict):
                raise ManifestError(f"{path}: id {mid!r}: `generator` must be an object")
            source["generator"] = dict(e["generator"])
        else:
            raise ManifestError(f"{path}: id {mid!r} has neither `fcidump` nor `generator`")
        target = _manifest_value((float, int), e.get("target", math.nan), path,
                                 f"id {mid!r}: `target`")
        entries.append(
            ManifestEntry(
                molecule_id=mid,
                source=source,
                target=target,
                label=str(e.get("label", "")),
            )
        )
    return entries


def _manifest_value(types, value, path, what):
    """value as a types[0]: a JSON value of one of types.  A boolean is not a
    number, and a numeric string is not one either."""
    if isinstance(value, types) and not isinstance(value, bool):
        try:
            return types[0](value)
        except OverflowError:  # float(10**400)
            pass
    raise ManifestError(f"{path}: {what}: bad value {value!r}")


def save_manifest(entries, path: str) -> None:
    """Write a list of ManifestEntry as a format-version 1 manifest."""
    raw = {
        "format_version": 1,
        "entries": [
            {
                "id": e.molecule_id,
                **e.source,
                "target": e.target,
                "label": e.label,
            }
            for e in entries
        ],
    }
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=1)
        fh.write("\n")


def save_features(ids, time_grid, values, path) -> None:
    """Write a feature table CSV: `molecule_id, t=<v1>, ...`, 17 sig digits."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(ids), len(time_grid)):
        raise ValueError("feature table shape does not match ids x time grid")
    write_table(path, ["molecule_id", *(f"t={t:.17g}" for t in time_grid)],
                ([mid, *row] for mid, row in zip(ids, values)))


def load_features(path):
    """Inverse of save_features; returns (ids, time_grid, values).

    A read_table table whose columns t=<v> form a non-empty, strictly
    increasing grid of finite times; raises ValueError otherwise.
    """
    columns, ids, values = read_table(path)
    if not all(c.startswith("t=") for c in columns):
        raise ValueError(f"{path}: line 1: not a feature table (bad header)")
    grid = np.array([_finite(c[2:], f"{path}: line 1") for c in columns])
    if not (grid.size and np.all(np.diff(grid) > 0)):
        raise ValueError(f"{path}: line 1: times must be non-empty and strictly increasing")
    return ids, grid, values
