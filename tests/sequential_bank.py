"""The filter bank with its replay done one record at a time: the reference
for ``FilterBank``'s closed-form transport.

``SequentialBank`` differs from ``FilterBank`` only in ``_replay``: past the
bank's ``_cov_known`` record, where no record holds a set, it moves each
record's mean from the one before with ``predict_mean``, tick by tick, as the
bank did before the means were transported in closed form.  The transported
bank must agree with it to rounding.
"""

from egotrack.estimator import FilterBank, predict, predict_mean


class SequentialBank(FilterBank):
    def _replay(self, start: int) -> None:
        history = self.history
        prev = history[start - 1]
        mean, cov, seen = prev.mean, prev.cov, prev.seen
        for j in range(start, len(history)):
            rec = history[j]
            if j <= self._cov_known:
                if mean is not None:
                    mean, cov = predict(mean, cov, rec.g, rec.c, self._q)
                for meas_stamp, z in rec.measurements:
                    mean, cov = self._apply_measurement(mean, cov, z, rec.stamp - seen)
                    seen = max(seen, meas_stamp)
                rec.mean, rec.cov, rec.seen = mean, cov, seen
            else:
                if mean is not None:
                    mean = predict_mean(mean, rec.g, rec.c)
                rec.mean, rec.cov, rec.seen = mean, None, seen
