CREATE TABLE "R" (c1 TEXT NOT NULL, c2 TEXT NOT NULL);

CREATE VIEW adom(v) AS
SELECT c1 AS v FROM "R"
UNION
SELECT c2 AS v FROM "R";

CREATE VIEW "target_S" AS
WITH k1 AS (
SELECT DISTINCT t1.c1 AS c1, t1.c2 AS c2 FROM "R" t1
)
, k2 AS (
SELECT DISTINCT t2.c1 AS c1 FROM "R" t2 WHERE t2.c2 = t2.c1
)
SELECT DISTINCT c1, c2 FROM (
SELECT k1.c1 AS c1, '@f1_1(' || replace(replace(replace(replace(k1.c1, '\', '\\'), ',', '\,'), '(', '\('), ')', '\)') || ',' || replace(replace(replace(replace(k1.c2, '\', '\\'), ',', '\,'), '(', '\('), ')', '\)') || ')' AS c2 FROM k1
UNION ALL
SELECT k2.c1 AS c1, k2.c1 AS c2 FROM k2
);

CREATE VIEW "target_T" AS
WITH k1 AS (
SELECT DISTINCT t1.c1 AS c1, t1.c2 AS c2 FROM "R" t1
)
SELECT DISTINCT c1, c2 FROM (
SELECT k1.c2 AS c1, '@f1_1(' || replace(replace(replace(replace(k1.c1, '\', '\\'), ',', '\,'), '(', '\('), ')', '\)') || ',' || replace(replace(replace(replace(k1.c2, '\', '\\'), ',', '\,'), '(', '\('), ')', '\)') || ')' AS c2 FROM k1
);
