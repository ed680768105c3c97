"""A workbench for a minimal dependent type theory.

Core syntax with de Bruijn indices, a bidirectional typechecker whose
conversion is decided by normalization by evaluation, a canonicity
decision procedure by glued evaluation, a syntactic parametricity
translation, set-valued models, and an independent reduction oracle
with deterministic term generators.  The oracle is not re-exported
here, so importing the CLI does not load it; import sconekit.oracle.
Nor does importing the CLI load dataclasses or json: a node class builds
its dataclass view on first read (see syntax.node), and only --json
output imports json.
"""

from .syntax import (
    App,
    Bool,
    Code,
    Context,
    DepthError,
    El,
    ElimBool,
    FalseTm,
    Lam,
    Lift,
    LiftTm,
    Pi,
    Renaming,
    ScopeError,
    Substitution,
    Term,
    TrueTm,
    U,
    UnliftTm,
    Var,
    rename,
    shift,
    subst,
    subst1,
    term_size,
)
from .models import ModelError
from .nbe import IllTypedError, Ne, Nf, embed, norm, norm_type
from .typecheck import (
    LevelError,
    NotInferableError,
    TypeCheckError,
    TypeMismatchError,
    check,
    conv,
    conv_types,
    infer,
    wf_type,
)
from .canonicity import BoolWitness, CanonicityError, canon, glued_eval
from .parametricity import (
    ParamResult,
    ParametricityError,
    UnsupportedFragmentError,
    param_family,
    param_term,
    translate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
