"""The immutable records of a fit and where their names resolve."""

import math

import numpy as np
import pytest

from glmixer import artifacts, data, gibbs, inference, prediction, records
from glmixer.design import ModelSpec
from glmixer.errors import ValidationError
from glmixer.kernels import RngStream
from glmixer.records import PriorConfig, Trace


def a_trace():
    return Trace(draws={"beta": np.zeros((3, 7))}, seed=1, chain_id=0, n_iter=6, burn_in=3,
                 thin=1, priors=PriorConfig(), spec=ModelSpec(), unit_ids=("A",), sizes=(10,))


@pytest.mark.parametrize("record,field", [
    (ModelSpec(), "variant"), (ModelSpec(), "year_offset"),
    (PriorConfig(), "error_prior"), (PriorConfig(), "nu_support"),
    (RngStream(3), "seed"), (RngStream(3), "stream_id"),
    (a_trace(), "draws"), (a_trace(), "seed")])
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either


@pytest.mark.parametrize("make", [
    # the other bad values are in test_design, test_gibbs and test_kernels
    lambda: ModelSpec(year_offset=math.nan), lambda: ModelSpec(2, "both", math.inf),
    lambda: PriorConfig(k_nu=math.inf), lambda: PriorConfig(nu_support=(1, 2.5)),
    lambda: PriorConfig(nu_support=[1, 2]),  # a config is hashable: its support is a tuple
    lambda: RngStream(seed=-2, stream_id=4)])
def test_bad_values_raise_validation_error(make):
    with pytest.raises(ValidationError):
        make()


@pytest.mark.parametrize("record", [
    ModelSpec(), PriorConfig(),
    PriorConfig(error_prior="gamma", reffect_prior="laplace", nu_weight="prose",
                beta_prior_precision=0.25)])
def test_dict_round_trip_keeps_the_type(record):
    # a named tuple equals a plain tuple of its fields, so check the type too
    again = type(record).from_dict(record.to_dict())
    assert again == record and type(again) is type(record)


def test_records_keep_their_defaults_and_positions():
    assert ModelSpec() == ModelSpec(1, "both", 0.0) and ModelSpec().p == 7
    assert RngStream(5) == RngStream(seed=5, stream_id=0)
    assert PriorConfig().nu_support == tuple(range(1, 31))
    assert a_trace().kept == 3


def test_nu_terms_are_computed_once_per_config():
    a, b = PriorConfig(reffect_prior="student-t"), PriorConfig(reffect_prior="student-t")
    assert a is not b and a._nu_t_terms is b._nu_t_terms
    assert PriorConfig(k_nu=1.5)._nu_t_terms is not a._nu_t_terms


def test_moved_names_resolve_to_the_same_objects():
    for name in ("PriorConfig", "Trace", "nu_log_prior", "ERROR_PRIORS", "REFFECT_PRIORS",
                 "NU_WEIGHTS"):
        assert getattr(gibbs, name) is getattr(records, name)
    for name in ("predict_new_unit", "PredictionResult", "_linear_quantiles", "_inv_logit_arr"):
        assert getattr(inference, name) is getattr(prediction, name)
    assert artifacts.write_panel_csv is data.write_panel_csv
