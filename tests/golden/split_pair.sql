CREATE TABLE "R" (c1 TEXT NOT NULL, c2 TEXT NOT NULL);

CREATE VIEW adom(v) AS
SELECT c1 AS v FROM "R"
UNION
SELECT c2 AS v FROM "R";

CREATE VIEW "target_S" AS
WITH dom(v) AS (SELECT v FROM adom)
SELECT DISTINCT c1, c2 FROM (
SELECT a1.v AS c1, '@f1_1(' || replace(replace(replace(replace(a1.v, '\', '\\'), ',', '\,'), '(', '\('), ')', '\)') || ',' || replace(replace(replace(replace(a2.v, '\', '\\'), ',', '\,'), '(', '\('), ')', '\)') || ')' AS c2 FROM dom a1, dom a2 WHERE EXISTS (SELECT 1 FROM "R" t3 WHERE t3.c1 = a1.v AND t3.c2 = a2.v)
UNION ALL
SELECT a1.v AS c1, a1.v AS c2 FROM dom a1 WHERE EXISTS (SELECT 1 FROM "R" t2 WHERE t2.c1 = a1.v AND t2.c2 = a1.v)
);

CREATE VIEW "target_T" AS
WITH dom(v) AS (SELECT v FROM adom)
SELECT DISTINCT c1, c2 FROM (
SELECT a2.v AS c1, '@f1_1(' || replace(replace(replace(replace(a1.v, '\', '\\'), ',', '\,'), '(', '\('), ')', '\)') || ',' || replace(replace(replace(replace(a2.v, '\', '\\'), ',', '\,'), '(', '\('), ')', '\)') || ')' AS c2 FROM dom a1, dom a2 WHERE EXISTS (SELECT 1 FROM "R" t3 WHERE t3.c1 = a1.v AND t3.c2 = a2.v)
);
