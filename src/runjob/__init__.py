"""runjob: a macro-driven workflow planner.

Metadata-described processing steps (configurators) are attached to a
linker, wired together with references and dependencies, and compiled by
framework messages into composite shell scripts, DAG descriptions, and
re-sourceable declarative state dumps.
"""

from . import errors
from .builtins import BUILTIN_TYPES, make_linker
from .configurator import (
    Configurator,
    ConfiguratorDescription,
    DependencyPattern,
    ValueExpression,
)
from .linker import DispatchRecord, Linker
from .macro_lang import execute_file, execute_script, parse_script, tokenize
from .scriptgen import DagGen, ScriptGen, ScriptObject, build_dag
from .trigger_store import (
    GLOBAL_READ,
    GLOBAL_WRITE,
    TriggerKind,
    TriggerStore,
    indexed_read,
    indexed_write,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_TYPES",
    "Configurator",
    "ConfiguratorDescription",
    "DagGen",
    "DependencyPattern",
    "DispatchRecord",
    "GLOBAL_READ",
    "GLOBAL_WRITE",
    "Linker",
    "ScriptGen",
    "ScriptObject",
    "TriggerKind",
    "TriggerStore",
    "ValueExpression",
    "build_dag",
    "errors",
    "execute_file",
    "execute_script",
    "indexed_read",
    "indexed_write",
    "make_linker",
    "parse_script",
    "tokenize",
    "__version__",
]
