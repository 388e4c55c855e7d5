"""Combinatorial calculus for iterated cut-and-paste sums of surfaces."""

from .disk import DiskPattern, TraceReport, trace
from .errors import (CertificateError, DisconnectionError, DomainError,
                     GuardViolationError, HakenSumError,
                     InsufficientCopiesError, MalformedComplexError,
                     RangeError, ScenarioError, UndefinedPeriodError)
from .gluing import AnnulusGluing, GluedPiece, GluingGraph
from .reductions import (CanState, IntersectionInventory, Pack, RunTrace,
                         Slice, absorb_trivial_seam, applicable_moves,
                         reduce_parities, remove_trivial, torus_periodicity,
                         tuna_can_run, tuna_can_step)
from .scenarios import (HandlebodyProof, ProofFailure, Report,
                        casson_gordon_scenario, doubled_handlebody_scenario,
                        handlebody_certificate)
from .schema import gluing_graph_from_dict
from .shifts import (BetaArc, DualCurveCertificate, LiftWalk, ShiftProfile,
                     SideSystem, SumEulers, ZeroSideCertificate,
                     annulus_shift_contradiction, compute_thresholds,
                     essential_certificate, lift_beta, shift,
                     validate_certificate)
from .surfaces import (Patch, PatchComplex, ResolvedComponent,
                       ResolvedSurface, SeamCurve, SurfaceDescriptor,
                       conjectured_period, euler_of_sum, genus_from_euler,
                       resolve, resolve_range)

__version__ = "0.1.0"
