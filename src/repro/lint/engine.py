"""The lint engine: collect modules, parse, run rules, apply pragmas.

The engine is deliberately small: it walks the given paths, parses each
``.py`` file once, derives the dotted module name (so scopes in
:mod:`repro.lint.config` can bind rules to packages), and hands every
module to each in-scope rule.  Rules come in two kinds:

* **module rules** see one file's AST at a time (D1, D2, D4, D5);
* **project rules** see the whole parsed tree at once (D3's exit-code
  exhaustiveness needs the enum, the pinned table, and every use site).

Findings land in deterministic ``(path, line, col, rule)`` order, so lint
output is itself reproducible — a linter about determinism had better be.
"""

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.lint.config import LintConfig, default_config
from repro.lint.pragmas import FilePragmas, parse_pragmas


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class ModuleInfo:
    """One parsed source file as the rules see it."""

    path: Path
    module: str  # dotted name, e.g. "repro.core.model"
    in_package: bool  # resolved inside a package rooted at __init__.py?
    source: str
    tree: ast.Module
    pragmas: FilePragmas
    #: Local alias -> fully dotted origin, from import statements
    #: ("np" -> "numpy", "perf_counter" -> "time.perf_counter").
    imports: Dict[str, str] = field(default_factory=dict)


def _module_name(path: Path) -> tuple:
    """Dotted module name by walking up through ``__init__.py`` parents."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    in_package = (parent / "__init__.py").exists()
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    if not parts:
        parts = [path.stem]
    return ".".join(parts), in_package


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


def dotted_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve an expression like ``time.perf_counter`` or an imported
    alias to its fully dotted origin; None for anything more dynamic."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = imports.get(node.id, node.id)
    return ".".join([root, *parts])


def load_module(path: Path) -> ModuleInfo:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    module, in_package = _module_name(path)
    return ModuleInfo(
        path=path,
        module=module,
        in_package=in_package and module.split(".")[0] == "repro",
        source=source,
        tree=tree,
        pragmas=parse_pragmas(source),
        imports=_collect_imports(tree),
    )


def collect_files(paths: Sequence) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py" and path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return files


class LintEngine:
    """Runs a rule set over a set of files under a scope config."""

    def __init__(self, config: Optional[LintConfig] = None,
                 rules: Optional[Iterable] = None):
        from repro.lint.rules import all_rules

        self.config = config or default_config()
        self.rules = list(rules) if rules is not None else all_rules()

    def run(self, paths: Sequence) -> List[Finding]:
        return self.run_modules([load_module(path)
                                 for path in collect_files(paths)])

    def run_modules(self, modules: Sequence[ModuleInfo]) -> List[Finding]:
        """Run each rule over the modules in its scope, one at a time or
        (project-wide rules) all at once, and drop the findings a pragma
        suppresses."""
        findings: List[Finding] = []
        for rule in self.rules:
            scoped = [m for m in modules
                      if self.config.in_scope(rule.id, m.module, m.in_package)]
            if not rule.project_wide:
                for info in scoped:
                    findings.extend(rule.check_module(info, self.config))
            elif scoped:
                findings.extend(rule.check_project(scoped, self.config))

        pragmas = {str(m.path): m.pragmas for m in modules}
        findings = [
            f for f in findings
            if not pragmas.get(f.path, FilePragmas()).suppresses(f.rule, f.line)
        ]
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings


def run_lint(paths: Sequence, config: Optional[LintConfig] = None) -> List[Finding]:
    """Lint files/directories with the default rule set."""
    return LintEngine(config).run(paths)


def lint_source(source: str, module: str = "snippet",
                config: Optional[LintConfig] = None,
                in_package: bool = False) -> List[Finding]:
    """Lint an in-memory source string (docs and tests convenience)."""
    info = ModuleInfo(
        path=Path(f"<{module}>"),
        module=module,
        in_package=in_package,
        source=source,
        tree=ast.parse(source, filename=f"<{module}>"),
        pragmas=parse_pragmas(source),
    )
    info.imports = _collect_imports(info.tree)
    # Project-wide rules run too: D3 returns early on a partial tree, and
    # D7 happily summarises a single module — docs examples depend on it.
    return LintEngine(config).run_modules([info])
